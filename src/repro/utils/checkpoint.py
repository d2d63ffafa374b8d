"""Model checkpointing: parameter archives and self-contained serving bundles.

Two formats share the same ``.npz`` container:

* **Parameter checkpoint** (:func:`save_checkpoint` / :func:`load_checkpoint`)
  — just the dotted parameter names plus a JSON metadata blob.  Loading
  requires an already-built model of the same architecture.
* **Serving bundle** (:func:`save_bundle` / :func:`load_bundle`) — a
  parameter checkpoint extended with everything needed to *rehydrate* a
  forecaster from the file alone: the model config, the fitted
  :class:`~repro.data.scalers.StandardScaler` statistics, and (for SAGDFN)
  the significant-neighbour sampler candidates and frozen index set.
  :meth:`repro.serve.ForecastService.from_checkpoint` consumes this format.

Reserved keys are wrapped in double underscores (``__metadata__``,
``__bundle__``, …) so they can never collide with parameter names;
:func:`load_checkpoint` skips them, which lets a plain model load the
parameters out of a bundle archive.

This module is the only one that knows the on-disk layout, and the bundle
format has exactly one version, :data:`BUNDLE_VERSION`.  :func:`load_bundle`
rejects anything else — another version, a missing payload digest, an
incomplete scaler record, a SAGDFN bundle without a usable config — with a
``ValueError`` that says to re-save the bundle.  Parameter keys must match
the model's current layout exactly (:meth:`Module.load_state_dict`).
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import asdict, dataclass, field, is_dataclass
from pathlib import Path

import numpy as np

from repro.nn.module import Module

# The one bundle format :func:`load_bundle` accepts (contents: see
# :class:`CheckpointBundle`).
BUNDLE_VERSION = 3

_METADATA_KEY = "__metadata__"
_BUNDLE_KEY = "__bundle__"
_CANDIDATES_KEY = "__sampler_candidates__"
_INDEX_SET_KEY = "__index_set__"
_SCHEDULER_KEY = "__scheduler__"
_DIGEST_KEY = "__digest__"
_SCALER_KEYS = ("type", "mean", "std", "count", "m2")

# Keys excluded from the SHA-256 payload digest: the digest itself, plus the
# JSON provenance records (bundle info, metadata, scheduler state).  The
# digest covers the *numeric* payload — parameters, sampler candidates, the
# frozen index set — i.e. everything a silently flipped bit would turn into
# silently wrong forecasts; byte damage to the JSON region is already caught
# by the zip container's CRC and the json/schema validation on load.
_DIGEST_EXCLUDED = {_DIGEST_KEY, _BUNDLE_KEY, _METADATA_KEY, _SCHEDULER_KEY}


def _is_reserved(key: str) -> bool:
    return key.startswith("__") and key.endswith("__")


def _payload_digest(payload: dict) -> str:
    """SHA-256 over the numeric payload arrays (names, dtypes, shapes, bytes)."""
    digest = hashlib.sha256()
    for name in sorted(payload):
        if name in _DIGEST_EXCLUDED:
            continue
        array = np.asarray(payload[name])
        digest.update(name.encode())
        digest.update(str(array.dtype).encode())
        digest.update(str(array.shape).encode())
        digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()


def _atomic_savez(path: Path, payload: dict) -> None:
    """Write an ``.npz`` atomically: tmp file + fsync + rename.

    A crash (or full disk) mid-write leaves the previous archive intact —
    a serving host never observes a torn checkpoint at ``path``.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.tmp-{os.getpid()}")
    try:
        with open(tmp, "wb") as fh:
            np.savez(fh, **payload)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            tmp.unlink()
        except OSError:
            pass
        raise
    # Best-effort directory fsync so the rename itself is durable; some
    # filesystems do not support fsync on a directory fd.
    try:
        dir_fd = os.open(path.parent, os.O_RDONLY)
        try:
            os.fsync(dir_fd)
        finally:
            os.close(dir_fd)
    except OSError:
        pass


def _json_default(value):
    """Unwrap numpy scalars for ``json.dumps``; reject anything else."""
    if isinstance(value, np.generic):
        return value.item()
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _normalise_path(path: str | Path) -> Path:
    path = Path(path)
    if path.suffix != ".npz":
        path = path.with_suffix(".npz")
    return path


def save_checkpoint(model: Module, path: str | Path, metadata: dict | None = None) -> Path:
    """Write all parameters of ``model`` (plus optional JSON metadata) to ``path``.

    The file is a standard ``.npz`` archive whose keys are the dotted
    parameter names from :meth:`Module.named_parameters`, with the metadata
    stored under the reserved ``__metadata__`` key.
    """
    path = _normalise_path(path)
    payload = {name: parameter.data for name, parameter in model.named_parameters()}
    payload[_METADATA_KEY] = np.array(json.dumps(metadata or {}))
    _atomic_savez(path, payload)
    return path


def load_checkpoint(model: Module, path: str | Path) -> dict:
    """Load parameters saved by :func:`save_checkpoint` into ``model``.

    Reserved ``__…__`` keys (metadata, bundle extras) are ignored, so both
    plain checkpoints and serving bundles can be loaded this way.  Returns
    the metadata dictionary stored alongside the parameters.  Raises
    ``KeyError`` / ``ValueError`` when the archive does not match the model.
    """
    path = Path(path)
    with np.load(path, allow_pickle=False) as archive:
        metadata = json.loads(str(archive[_METADATA_KEY]))
        state = {name: archive[name] for name in archive.files if not _is_reserved(name)}
    model.load_state_dict(state)
    return metadata


# --------------------------------------------------------------------- #
# Serving bundles
# --------------------------------------------------------------------- #
@dataclass
class CheckpointBundle:
    """Everything :func:`load_bundle` recovers from a serving bundle archive.

    Attributes
    ----------
    state:
        Parameter arrays keyed by dotted name (ready for
        :meth:`Module.load_state_dict`).
    config:
        The model configuration dictionary (``SAGDFNConfig`` fields).
    model_type:
        Class name of the saved forecaster (``"SAGDFN"``).
    dtype:
        The floating dtype the parameters were saved under.
    scaler_state:
        ``{"type", "mean", "std", "count", "m2"}`` of the fitted target
        scaler, or ``None``.  ``count`` (observations the statistics
        summarise) and ``m2`` (raw sum of squared deviations) let the
        rehydrated scaler continue exactly with ``partial_fit``.
    sampler_candidates:
        SNS candidate-neighbour matrix ``C`` of shape ``(N, M)``, or ``None``.
    index_set:
        Frozen significant-neighbour index set ``I``, or ``None``.
    scheduler_state:
        ``{"type": <scheduler class name>, "state": <scheduler.state_dict()>}``
        of the learning-rate scheduler active when the bundle was written, or
        ``None``.  Feed the inner ``state`` to a freshly constructed scheduler
        of the same type (``scheduler.load_state_dict``) to resume the
        schedule — epoch counter and current learning rate included — instead
        of restarting it.
    drift:
        Online-serving drift-monitor configuration (the
        :class:`repro.serve.online.DriftConfig` fields) recorded when the
        bundle was written with ``save_bundle(..., drift=...)``, or ``None``.
        ``SessionManager.from_checkpoint`` starts its monitor from it; a
        ``drift`` dict passed there overrides the keys it names.
    metadata:
        Free-form user metadata.
    version:
        Bundle format version.
    """

    state: dict[str, np.ndarray]
    config: dict
    model_type: str
    dtype: str
    scaler_state: dict | None = None
    sampler_candidates: np.ndarray | None = None
    index_set: np.ndarray | None = None
    scheduler_state: dict | None = None
    drift: dict | None = None
    metadata: dict = field(default_factory=dict)
    version: int = BUNDLE_VERSION


def save_bundle(
    model: Module,
    path: str | Path,
    scaler=None,
    metadata: dict | None = None,
    scheduler=None,
    drift=None,
) -> Path:
    """Write a self-contained serving bundle for ``model`` to ``path``.

    Alongside the parameters, the bundle records the model config (for
    SAGDFN: the :class:`~repro.core.config.SAGDFNConfig` dataclass fields),
    the fitted ``scaler`` statistics, and — when present on the model — the
    SNS sampler candidates and current index set, so that
    :func:`load_bundle` / ``ForecastService.from_checkpoint`` can rebuild
    the forecaster without any other artefact.  Passing the active
    learning-rate ``scheduler`` additionally persists its
    :meth:`~repro.optim.lr_scheduler._Scheduler.state_dict` so a resumed run
    continues the schedule instead of restarting it.  ``drift`` (a
    :class:`repro.serve.online.DriftConfig` or an equivalent dict) records
    the online drift-monitor configuration serving hosts should start with.
    """
    path = _normalise_path(path)
    payload = {name: parameter.data for name, parameter in model.named_parameters()}
    parameters = list(payload.values())
    dtype = str(parameters[0].dtype) if parameters else "float64"

    config = getattr(model, "config", None)
    config_dict = None
    if config is not None:
        config_dict = asdict(config) if is_dataclass(config) else dict(vars(config))

    scaler_state = None
    if scaler is not None:
        if getattr(scaler, "mean_", None) is None or getattr(scaler, "std_", None) is None:
            raise ValueError("scaler must be fit before it can be bundled")
        scaler_state = {
            "type": type(scaler).__name__,
            "mean": float(scaler.mean_),
            "std": float(scaler.std_),
            "count": int(scaler.count_),
            "m2": float(scaler._m2),
        }

    drift_record = None
    if drift is not None:
        drift_record = asdict(drift) if is_dataclass(drift) else dict(drift)

    bundle_info = {
        "version": BUNDLE_VERSION,
        "model_type": type(model).__name__,
        "dtype": dtype,
        "config": config_dict,
        "scaler": scaler_state,
        "drift": drift_record,
    }
    payload[_BUNDLE_KEY] = np.array(json.dumps(bundle_info))
    payload[_METADATA_KEY] = np.array(json.dumps(metadata or {}))

    sampler = getattr(model, "sampler", None)
    if sampler is not None and getattr(sampler, "candidates", None) is not None:
        payload[_CANDIDATES_KEY] = np.asarray(sampler.candidates, dtype=np.int64)
    index_set = getattr(model, "index_set", None)
    if index_set is not None:
        payload[_INDEX_SET_KEY] = np.asarray(index_set, dtype=np.int64)
    if scheduler is not None:
        scheduler_record = {
            "type": type(scheduler).__name__,
            "state": scheduler.state_dict(),
        }
        # Scheduler state may hold numpy scalars (e.g. a best metric fed from
        # float32 tensor data); unwrap them so json.dumps does not choke.
        payload[_SCHEDULER_KEY] = np.array(
            json.dumps(scheduler_record, default=_json_default)
        )

    # Integrity envelope: a SHA-256 digest of the numeric payload, written
    # atomically (tmp + fsync + rename) so a crash mid-save can never leave
    # a torn bundle and a flipped parameter bit can never serve silently.
    payload[_DIGEST_KEY] = np.array(_payload_digest(payload))
    _atomic_savez(path, payload)
    return path


def rehydrate_model(bundle: CheckpointBundle) -> Module:
    """Rebuild the saved forecaster from a :class:`CheckpointBundle`.

    The worker-side rehydrate path: serving-cluster worker processes (and
    :meth:`repro.serve.ForecastService.from_checkpoint`) rebuild the model
    from the bundle alone — config, dtype, SNS sampler candidates, frozen
    index set and parameters all come out of the archive, so every replica
    of a bundle is bit-identically the same forecaster.
    """
    if bundle.model_type != "SAGDFN":
        raise ValueError(
            f"cannot rehydrate model type {bundle.model_type!r}; "
            "only SAGDFN bundles are currently servable"
        )
    from repro.core import SAGDFN, SAGDFNConfig

    model = SAGDFN(SAGDFNConfig(**bundle.config))
    model.to(np.dtype(bundle.dtype))
    if bundle.sampler_candidates is not None:
        model.sampler.candidates = np.asarray(bundle.sampler_candidates, dtype=np.int64)
    if bundle.index_set is not None:
        model._index_set = np.asarray(bundle.index_set, dtype=np.int64)
    model.load_state_dict(bundle.state)
    return model


def rehydrate_scaler(bundle: CheckpointBundle):
    """Rebuild the fitted target scaler from a bundle (``None`` if unscaled)."""
    state = bundle.scaler_state
    if state is None:
        return None
    if state.get("type") != "StandardScaler":
        raise ValueError(f"unsupported scaler type {state.get('type')!r} in bundle")
    from repro.data.scalers import StandardScaler

    scaler = StandardScaler()
    scaler.mean_ = float(state["mean"])
    scaler.std_ = float(state["std"])
    scaler.count_ = int(state["count"])
    scaler._m2 = float(state["m2"])
    return scaler


def load_bundle(path: str | Path, verify_digest: bool = True) -> CheckpointBundle:
    """Read a serving bundle written by :func:`save_bundle`.

    Raises ``ValueError`` when ``path`` is not a serving bundle (e.g. a plain
    parameter checkpoint), when its format version is not
    :data:`BUNDLE_VERSION`, when its scaler record is incomplete, when a
    SAGDFN bundle carries no model config, or when the SHA-256 payload digest
    is missing or does not match the arrays on disk.  A config key
    :class:`~repro.core.config.SAGDFNConfig` does not know raises
    ``TypeError``.  ``verify_digest=False`` skips the digest check — e.g. for
    cluster workers whose parent already verified the same file.
    """
    path = Path(path)
    with np.load(path, allow_pickle=False) as archive:
        if _BUNDLE_KEY not in archive.files:
            raise ValueError(
                f"{path} is not a serving bundle (missing {_BUNDLE_KEY!r}); "
                "use load_checkpoint for plain parameter checkpoints"
            )
        info = json.loads(str(archive[_BUNDLE_KEY]))
        version = info.get("version")
        if version != BUNDLE_VERSION:
            found = "no format version" if version is None else f"version {version}"
            raise ValueError(
                f"{path} records {found}; only bundle version {BUNDLE_VERSION} "
                "is supported — re-save it with save_bundle"
            )
        if verify_digest:
            if _DIGEST_KEY not in archive.files:
                raise ValueError(
                    f"{path} has no payload digest ({_DIGEST_KEY!r}), so its arrays "
                    "cannot be verified — re-save it with save_bundle"
                )
            recorded = str(archive[_DIGEST_KEY])
            actual = _payload_digest(
                {name: archive[name] for name in archive.files
                 if name not in _DIGEST_EXCLUDED}
            )
            if actual != recorded:
                raise ValueError(
                    f"{path} failed its payload digest check "
                    f"(recorded {recorded[:12]}…, got {actual[:12]}…): "
                    "the bundle is corrupt"
                )
        metadata = json.loads(str(archive[_METADATA_KEY])) if _METADATA_KEY in archive.files else {}
        state = {name: archive[name] for name in archive.files if not _is_reserved(name)}
        candidates = archive[_CANDIDATES_KEY] if _CANDIDATES_KEY in archive.files else None
        index_set = archive[_INDEX_SET_KEY] if _INDEX_SET_KEY in archive.files else None
        scheduler_state = (
            json.loads(str(archive[_SCHEDULER_KEY]))
            if _SCHEDULER_KEY in archive.files
            else None
        )

    scaler_state = info.get("scaler")
    if scaler_state is not None:
        missing = [key for key in _SCALER_KEYS if key not in scaler_state]
        if missing:
            raise ValueError(
                f"{path} has an incomplete scaler record (missing {missing}) — "
                "re-save it with save_bundle"
            )
    model_type = str(info.get("model_type", ""))
    config = info.get("config") or {}
    if model_type == "SAGDFN":
        if not config:
            raise ValueError(
                f"{path} is missing the model config — re-save it with save_bundle"
            )
        from repro.core import SAGDFNConfig

        SAGDFNConfig(**config)  # unknown keys raise TypeError, bad values ValueError
    return CheckpointBundle(
        state=state,
        config=config,
        model_type=model_type,
        dtype=str(info.get("dtype", "float64")),
        scaler_state=scaler_state,
        sampler_candidates=candidates,
        index_set=index_set,
        scheduler_state=scheduler_state,
        drift=info.get("drift"),
        metadata=metadata,
    )
