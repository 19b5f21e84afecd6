"""Kernel objects: attributes, loop metadata, and implementation forms.

The paper's optimization work is largely attribute-driven:

* ``sycl::reqd_work_group_size`` / ``intel::max_work_group_size`` — §4,
  needed because Altis' default work-group sizes exceed the FPGA
  compiler's preconfigured limits;
* ``intel::num_simd_work_items(V)`` — §5.2 vectorization of ND-range
  kernels;
* ``intel::initiation_interval(R)`` / ``intel::speculated_iterations(S)``
  — §5.3 loop pipelining of Single-Task kernels;
* ``#pragma unroll N`` — loop unrolling.

A :class:`KernelSpec` couples the functional implementations (scalar
``item_fn`` and vectorized ``vector_fn``) with this metadata: the
executor runs the forms and checks the work-group attributes, and the
FPGA resource, synthesis and timing models (``fpga.resources``,
``fpga.synthesis``, ``perfmodel.fpga``) read the rest.  The GPU and CPU
models read only a launch's ``KernelProfile``.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field, replace
from typing import Callable

from ..common.errors import InvalidParameterError

__all__ = ["KernelKind", "LoopSpec", "KernelAttributes", "KernelSpec"]


class KernelKind:
    ND_RANGE = "nd_range"
    SINGLE_TASK = "single_task"


@dataclass(frozen=True)
class LoopSpec:
    """Metadata for one loop inside a kernel (per-work-item trip counts).

    ``trip_count`` may be a callable ``(problem) -> int`` resolved by the
    app's profile builder; here we keep the resolved integer.
    """

    name: str
    trip_count: int
    unroll: int = 1
    initiation_interval: int = 1
    speculated_iterations: int = 4  # oneAPI compiler's conservative default
    nested_in: str | None = None


@dataclass(frozen=True)
class KernelAttributes:
    """Kernel-scope attributes (SYCL + Intel FPGA extensions)."""

    reqd_work_group_size: tuple[int, ...] | None = None
    max_work_group_size: tuple[int, ...] | None = None
    num_simd_work_items: int = 1

    def validate(self) -> None:
        if self.num_simd_work_items < 1:
            raise InvalidParameterError("num_simd_work_items must be >= 1")
        if self.reqd_work_group_size is not None and self.max_work_group_size is not None:
            for r, m in zip(self.reqd_work_group_size, self.max_work_group_size):
                if r > m:
                    raise InvalidParameterError(
                        "reqd_work_group_size exceeds max_work_group_size"
                    )


@dataclass
class KernelSpec:
    """One device kernel with its functional forms and model metadata.

    Parameters
    ----------
    item_fn:
        Per-work-item function ``fn(nd_item, *args)``; a generator function
        if the kernel synchronizes (``yield item.barrier()``).  For
        single-task kernels the signature is ``fn(*args)`` (generator if it
        blocks on pipes).
    vector_fn:
        Optional numpy-vectorized whole-range fast path
        ``fn(nd_range, *args)`` (or ``fn(*args)`` for single-task),
        semantically equal to running ``item_fn`` over the full range.
    features:
        Free-form feature flags the FPGA models read, e.g.
        ``local_memories``, ``body_fmas``, ``body_ops``,
        ``global_access_sites``, ``uses_pipes``, ``fp64``,
        ``deep_control_flow``.
    """

    name: str
    kind: str = KernelKind.ND_RANGE
    item_fn: Callable | None = None
    vector_fn: Callable | None = None
    attributes: KernelAttributes = field(default_factory=KernelAttributes)
    loops: list[LoopSpec] = field(default_factory=list)
    features: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in (KernelKind.ND_RANGE, KernelKind.SINGLE_TASK):
            raise InvalidParameterError(f"unknown kernel kind {self.kind!r}")
        if self.item_fn is None and self.vector_fn is None:
            raise InvalidParameterError(f"kernel {self.name!r} has no implementation")
        self.attributes.validate()

    @property
    def is_single_task(self) -> bool:
        return self.kind == KernelKind.SINGLE_TASK

    @property
    def uses_barrier(self) -> bool:
        return (self.item_fn is not None
                and inspect.isgeneratorfunction(self.item_fn))

    def feature(self, key: str, default=None):
        return self.features.get(key, default)

    def with_attributes(self, **kwargs) -> "KernelSpec":
        """Return a copy with updated attributes (optimization steps)."""
        new_attrs = replace(self.attributes, **kwargs)
        return replace(self, attributes=new_attrs)

    def loop(self, name: str) -> LoopSpec:
        for lp in self.loops:
            if lp.name == name:
                return lp
        raise InvalidParameterError(f"kernel {self.name!r} has no loop {name!r}")

    def __repr__(self) -> str:
        return f"KernelSpec({self.name!r}, kind={self.kind})"
