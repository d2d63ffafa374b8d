"""Parameter registration and the :class:`Module` base class."""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.tensor import Tensor


class Parameter(Tensor):
    """A :class:`~repro.tensor.Tensor` flagged as a learnable parameter.

    Any :class:`Parameter` assigned as an attribute of a :class:`Module` is
    automatically registered and returned by :meth:`Module.parameters`.
    """

    def __init__(self, data, name: str | None = None, dtype=None):
        super().__init__(data, requires_grad=True, name=name, dtype=dtype)

    def __repr__(self) -> str:
        return f"Parameter(shape={self.shape}, name={self.name!r})"


class Module:
    """Base class for all neural-network layers and models.

    Subclasses define parameters and sub-modules as attributes in
    ``__init__`` and implement :meth:`forward`.  The base class provides
    parameter traversal, gradient zeroing, ``state_dict`` serialisation and
    train/eval mode propagation (used by :class:`~repro.nn.dropout.Dropout`
    and :class:`~repro.nn.normalization.BatchNorm1d`).
    """

    def __init__(self) -> None:
        self.training = True

    # ------------------------------------------------------------------ #
    # Forward dispatch
    # ------------------------------------------------------------------ #
    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    # ------------------------------------------------------------------ #
    # Traversal
    # ------------------------------------------------------------------ #
    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Parameter]]:
        """Yield ``(name, parameter)`` pairs for this module and its children."""
        seen: set[int] = set()
        for name, value in vars(self).items():
            full_name = f"{prefix}{name}"
            if isinstance(value, Parameter):
                if id(value) not in seen:
                    seen.add(id(value))
                    yield full_name, value
            elif isinstance(value, Module):
                yield from value.named_parameters(prefix=f"{full_name}.")
            elif isinstance(value, (list, tuple)):
                for i, item in enumerate(value):
                    if isinstance(item, Parameter):
                        yield f"{full_name}.{i}", item
                    elif isinstance(item, Module):
                        yield from item.named_parameters(prefix=f"{full_name}.{i}.")
            elif isinstance(value, dict):
                for key, item in value.items():
                    if isinstance(item, Parameter):
                        yield f"{full_name}.{key}", item
                    elif isinstance(item, Module):
                        yield from item.named_parameters(prefix=f"{full_name}.{key}.")

    def parameters(self) -> list[Parameter]:
        """Return all unique parameters of this module (deduplicated by identity)."""
        result: list[Parameter] = []
        seen: set[int] = set()
        for _, parameter in self.named_parameters():
            if id(parameter) not in seen:
                seen.add(id(parameter))
                result.append(parameter)
        return result

    def modules(self) -> Iterator["Module"]:
        """Yield this module and all of its descendants."""
        for _, module in self.named_modules():
            yield module

    def named_modules(self, prefix: str = "") -> Iterator[tuple[str, "Module"]]:
        """Yield ``(prefix, module)`` pairs for this module and its descendants.

        Prefixes follow the :meth:`named_parameters` convention: the root
        module has prefix ``""`` and a child assigned as ``self.attention``
        has prefix ``"attention."``, so ``prefix + parameter_name`` is the
        key the parameter takes in :meth:`state_dict`.
        """
        yield prefix, self
        for name, value in vars(self).items():
            if isinstance(value, Module):
                yield from value.named_modules(prefix=f"{prefix}{name}.")
            elif isinstance(value, (list, tuple)):
                for i, item in enumerate(value):
                    if isinstance(item, Module):
                        yield from item.named_modules(prefix=f"{prefix}{name}.{i}.")
            elif isinstance(value, dict):
                for key, item in value.items():
                    if isinstance(item, Module):
                        yield from item.named_modules(prefix=f"{prefix}{name}.{key}.")

    def num_parameters(self) -> int:
        """Total number of scalar parameters, used for the Table X comparison."""
        return int(sum(p.size for p in self.parameters()))

    # ------------------------------------------------------------------ #
    # Training state
    # ------------------------------------------------------------------ #
    def train(self, mode: bool = True) -> "Module":
        for module in self.modules():
            module.training = mode
        return self

    def eval(self) -> "Module":
        return self.train(False)

    def zero_grad(self) -> None:
        for parameter in self.parameters():
            parameter.zero_grad()

    def to(self, dtype) -> "Module":
        """Cast every parameter and floating buffer (Tensor or ndarray) to ``dtype``.

        Complements the engine-wide precision policy
        (:func:`repro.tensor.set_default_dtype`): use ``to`` to convert an
        already-built model, e.g. ``model.to(np.float32)``.
        """
        dtype = np.dtype(dtype)
        if not np.issubdtype(dtype, np.floating):
            raise ValueError(f"Module.to expects a floating dtype, got {dtype}")
        for parameter in self.parameters():
            parameter.data = parameter.data.astype(dtype, copy=False)
            if parameter.grad is not None:
                parameter.grad = parameter.grad.astype(dtype, copy=False)
        def cast(value):
            """Cast one buffer (Tensor or floating ndarray); None if untouched."""
            if isinstance(value, Parameter):
                return None  # already cast above (deduplicated by identity)
            if isinstance(value, Tensor):
                if np.issubdtype(value.data.dtype, np.floating):
                    value.data = value.data.astype(dtype, copy=False)
                return None  # mutated in place
            if isinstance(value, np.ndarray) and np.issubdtype(value.dtype, np.floating):
                return value.astype(dtype, copy=False)
            return None

        for module in self.modules():
            for name, value in vars(module).items():
                if isinstance(value, (list, tuple)):
                    items = [cast(item) if not isinstance(item, Module) else None
                             for item in value]
                    if any(item is not None for item in items):
                        rebuilt = [new if new is not None else old
                                   for old, new in zip(value, items)]
                        setattr(module, name, type(value)(rebuilt))
                elif isinstance(value, dict):
                    for key, item in value.items():
                        if not isinstance(item, Module):
                            replacement = cast(item)
                            if replacement is not None:
                                value[key] = replacement
                else:
                    replacement = cast(value)
                    if replacement is not None:
                        setattr(module, name, replacement)
        return self

    # ------------------------------------------------------------------ #
    # Serialisation
    # ------------------------------------------------------------------ #
    def state_dict(self) -> dict[str, np.ndarray]:
        """Return a copy of every parameter keyed by its dotted name."""
        return {name: parameter.data.copy() for name, parameter in self.named_parameters()}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        """Load parameters previously captured by :meth:`state_dict`.

        The keys must match :meth:`named_parameters` exactly; any missing or
        unexpected key raises ``KeyError``.
        """
        own = dict(self.named_parameters())
        missing = set(own) - set(state)
        unexpected = set(state) - set(own)
        if missing or unexpected:
            raise KeyError(
                f"state_dict mismatch: missing={sorted(missing)}, unexpected={sorted(unexpected)}"
            )
        for name, parameter in own.items():
            value = np.asarray(state[name], dtype=parameter.data.dtype)
            if value.shape != parameter.data.shape:
                raise ValueError(
                    f"shape mismatch for {name}: expected {parameter.data.shape}, got {value.shape}"
                )
            parameter.data = value.copy()


class ModuleList(Module):
    """A list of sub-modules whose parameters are registered with the parent."""

    def __init__(self, modules: list[Module] | None = None) -> None:
        super().__init__()
        self.items: list[Module] = list(modules) if modules else []

    def append(self, module: Module) -> None:
        self.items.append(module)

    def __iter__(self):
        return iter(self.items)

    def __len__(self) -> int:
        return len(self.items)

    def __getitem__(self, index: int) -> Module:
        return self.items[index]

    def forward(self, *args, **kwargs):
        raise RuntimeError("ModuleList is a container and cannot be called directly")


class Sequential(Module):
    """Feed the input through each sub-module in order."""

    def __init__(self, *modules: Module) -> None:
        super().__init__()
        self.items = ModuleList(list(modules))

    def forward(self, x):
        for module in self.items:
            x = module(x)
        return x

    def __len__(self) -> int:
        return len(self.items)

    def __getitem__(self, index: int) -> Module:
        return self.items[index]
