"""Configuration of the SAGDFN model and its ablation switches."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class SAGDFNConfig:
    """Hyper-parameters of SAGDFN (defaults follow the paper where practical).

    The paper's reference configuration uses ``embedding_dim=100``,
    ``num_significant=100``, ``top_k=80``, ``hidden_size=64``, ``num_heads=8``,
    ``diffusion_steps=3`` and α = 2.0 on the large datasets; the defaults here
    are scaled to CPU-sized experiments but every value can be raised back to
    the paper's setting.

    Parameters
    ----------
    num_nodes:
        ``N``, the number of time series.
    input_dim:
        Channels of the encoder input (target + time covariates).
    output_dim:
        Channels being forecast (1 for all paper datasets).
    history / horizon:
        ``h`` and ``f`` of Definition 3.
    embedding_dim:
        ``d``, width of the node embeddings ``E``.
    num_significant:
        ``M``, number of globally significant neighbours (slim width).
    top_k:
        ``K`` of Algorithm 1 — how many of the ``M`` slots are filled with the
        highest-frequency nodes; the remaining ``M − K`` are explored randomly
        until iteration ``convergence_iteration``.
    hidden_size:
        ``D``, GRU hidden width.
    num_heads:
        ``P``, number of feed-forward attention heads.
    ffn_hidden:
        Hidden width of each pair-wise scoring FFN.
    alpha:
        α of the α-entmax normaliser (1.0 = softmax, 2.0 = sparsemax).
    diffusion_steps:
        ``J``, depth of the fast graph diffusion (Eq. 9).
    num_layers:
        Encoder/decoder recurrent layers (the paper uses 1).
    teacher_forcing:
        Probability of feeding the ground-truth value (instead of the model's
        own prediction) to the decoder during training — the
        scheduled-sampling curriculum inherited from DCRNN.  0 disables it.
    convergence_iteration:
        ``r`` of Algorithm 2 — after this many training iterations the
        neighbour index set is frozen and random exploration stops.
    normalizer:
        ``"entmax"`` (paper) or ``"softmax"`` (the "w/o Entmax" ablation).
    use_pairwise_attention:
        ``False`` reproduces the "w/o Attention" ablation (inner-product slim
        adjacency).
    use_sns:
        ``False`` reproduces the "w/o SNS" ablation (random index set).
    use_predefined_graph:
        ``True`` reproduces the "w/o SNS & SSMA" ablation (distance-based
        top-``num_significant`` adjacency, no learned graph).
    chunk_size:
        Node-block size of the memory-bounded large-``N`` pathway.  When set,
        the SNS distance ranking and the attention scoring pipeline process
        nodes ``chunk_size`` rows at a time, so peak memory drops from
        ``O(N·M·d)`` to ``O(chunk_size·M·d)`` while the outputs stay
        bit-identical to the unchunked paths.  ``None`` leaves the default
        (unchunked SNS, cache-heuristic attention tiles).
    memory_budget_mb:
        Alternative to ``chunk_size``: a per-forward scratch budget in MiB
        from which each module derives its own node-block size.  Ignored
        when ``chunk_size`` is set explicitly.
    quantiles:
        Probabilistic-forecasting head: when set (e.g. ``(0.1, 0.5, 0.9)``),
        the decoder projects every step to one column per quantile and the
        trainer optimises the masked pinball loss instead of the masked MAE.
        The quantile closest to 0.5 (the median head) is fed back as the
        next decoder input and scores the point metrics.  Requires
        ``output_dim == 1``; quantiles must be strictly increasing in
        ``(0, 1)``.  ``None`` keeps the point-forecast head.
    exog_dim:
        Number of declared exogenous covariate channels (time-of-day /
        day-of-week, …) appended to the ``input_dim`` endogenous channels of
        every encoder input window.  Exogenous channels are part of the
        encoder input width but are never forecast and never normalised by
        the target scaler.  0 keeps the legacy layout (where any covariates
        are counted inside ``input_dim``).
    mask_input:
        Native missing-data handling: when ``True`` the encoder input
        carries one trailing observation-mask channel (1 = observed,
        0 = missing).  The data layer zero-imputes missing endogenous
        readings *in normalised units* (i.e. mean-imputation in original
        units) and the mask channel is diffused and gated like every other
        channel, so the cells see
        both how much signal a node aggregated and which inputs were
        imputed — missing entries influence neither the loss nor any
        gradient.
    seed:
        Seed for parameter initialisation and neighbour sampling.
    """

    num_nodes: int
    input_dim: int = 2
    output_dim: int = 1
    history: int = 12
    horizon: int = 12
    embedding_dim: int = 16
    num_significant: int = 10
    top_k: int = 8
    hidden_size: int = 32
    num_heads: int = 2
    ffn_hidden: int = 16
    alpha: float = 1.5
    diffusion_steps: int = 2
    num_layers: int = 1
    teacher_forcing: float = 0.0
    convergence_iteration: int = 50
    normalizer: str = "entmax"
    use_pairwise_attention: bool = True
    use_sns: bool = True
    use_predefined_graph: bool = False
    chunk_size: int | None = None
    memory_budget_mb: float | None = None
    quantiles: tuple[float, ...] | None = None
    exog_dim: int = 0
    mask_input: bool = False
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_nodes < 2:
            raise ValueError("SAGDFN needs at least two nodes")
        if self.num_significant > self.num_nodes:
            raise ValueError(
                f"num_significant ({self.num_significant}) cannot exceed num_nodes "
                f"({self.num_nodes})"
            )
        if not 0 < self.top_k <= self.num_significant:
            raise ValueError("top_k must satisfy 0 < top_k <= num_significant")
        if self.normalizer not in {"entmax", "softmax"}:
            raise ValueError("normalizer must be 'entmax' or 'softmax'")
        if self.alpha < 1.0:
            raise ValueError("alpha must be >= 1.0")
        if self.diffusion_steps < 1:
            raise ValueError("diffusion_steps must be >= 1")
        if self.num_layers < 1:
            raise ValueError("num_layers must be >= 1")
        if not 0.0 <= self.teacher_forcing <= 1.0:
            raise ValueError("teacher_forcing must be a probability in [0, 1]")
        if self.chunk_size is not None and self.chunk_size < 1:
            raise ValueError("chunk_size must be >= 1 (or None for the default)")
        if self.memory_budget_mb is not None and self.memory_budget_mb <= 0:
            raise ValueError("memory_budget_mb must be positive (or None for the default)")
        if self.quantiles is not None:
            # Bundle configs arrive as JSON lists; normalise to a float tuple.
            quantiles = tuple(float(q) for q in self.quantiles)
            if not quantiles:
                raise ValueError("quantiles must be non-empty (or None for a point head)")
            if any(not 0.0 < q < 1.0 for q in quantiles):
                raise ValueError(f"quantiles must lie strictly inside (0, 1): {quantiles}")
            if any(b <= a for a, b in zip(quantiles, quantiles[1:])):
                raise ValueError(f"quantiles must be strictly increasing: {quantiles}")
            if self.output_dim != 1:
                raise ValueError("quantile heads require output_dim == 1")
            self.quantiles = quantiles
        if self.exog_dim < 0:
            raise ValueError("exog_dim must be >= 0")
        if self.input_dim < 1:
            raise ValueError("input_dim must be >= 1")

    @property
    def encoder_input_width(self) -> int:
        """Total encoder input channels: endogenous + exogenous + mask."""
        return self.input_dim + self.exog_dim + (1 if self.mask_input else 0)

    @property
    def num_quantiles(self) -> int:
        """Number of decoder quantile heads (1 for a point forecaster)."""
        return len(self.quantiles) if self.quantiles is not None else 1

    @classmethod
    def paper_setting(cls, num_nodes: int, history: int = 12, horizon: int = 12) -> "SAGDFNConfig":
        """The full-size configuration reported in the paper's implementation section."""
        return cls(
            num_nodes=num_nodes,
            history=history,
            horizon=horizon,
            embedding_dim=100,
            num_significant=min(100, num_nodes),
            top_k=min(80, num_nodes),
            hidden_size=64,
            num_heads=8,
            ffn_hidden=64,
            alpha=2.0,
            diffusion_steps=3,
        )
