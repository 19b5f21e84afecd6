"""Kernel objects: attributes, loop metadata, and implementation forms.

The paper's optimization work is largely attribute-driven:

* ``sycl::reqd_work_group_size`` / ``intel::max_work_group_size`` — §4,
  needed because Altis' default work-group sizes exceed the FPGA
  compiler's preconfigured limits;
* ``intel::num_simd_work_items(V)`` — §5.2 vectorization of ND-range
  kernels;
* ``intel::initiation_interval(R)`` / ``intel::speculated_iterations(S)``
  — §5.3 loop pipelining of Single-Task kernels;
* ``intel::kernel_args_restrict`` / ``max_global_work_dim(0)`` /
  ``no_global_work_offset(1)`` — Listing 2's Single-Task idiom;
* ``#pragma unroll N`` — loop unrolling.

A :class:`KernelSpec` couples the functional implementations (scalar
``item_fn`` and vectorized ``vector_fn``) with this metadata so both the
executor and the FPGA synthesis / performance models consume one object.
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
    #: operations per iteration dominated by shared-memory access?
    local_mem_bound: bool = False

    def with_pragmas(self, *, unroll: int | None = None, ii: int | None = None,
                     speculated: int | None = None) -> "LoopSpec":
        return replace(
            self,
            unroll=self.unroll if unroll is None else unroll,
            initiation_interval=self.initiation_interval if ii is None else ii,
            speculated_iterations=(
                self.speculated_iterations if speculated is None else speculated
            ),
        )


@dataclass(frozen=True)
class KernelAttributes:
    """Kernel-scope attributes (SYCL + Intel FPGA extensions)."""

    reqd_work_group_size: tuple[int, ...] | None = None
    max_work_group_size: tuple[int, ...] | None = None
    num_simd_work_items: int = 1
    kernel_args_restrict: bool = False
    max_global_work_dim: int | None = None
    no_global_work_offset: bool = False

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
        Free-form feature flags consumed by the FPGA resource model and
        the implementation-trait system, e.g. ``uses_local_mem``,
        ``shared_arrays``, ``branch_density``, ``pow_calls``,
        ``virtual_calls``, ``fp64``, ``accessor_args_as_objects``.
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

    def compiled_form(self) -> tuple:
        """Eligibility of this kernel for the batched compiled tier.

        Returns ``(form, reason)`` from
        :func:`repro.sycl.vectorize.eligible_form`: ``("item", None)``
        when the ``item_fn`` lifts into a batched numpy program, else
        ``(None, reason)`` with the
        construct that blocked it.  Declare a ``no_vectorize`` feature
        to opt a kernel out of the tier entirely.

        The batchable dialect covers guard returns, conditionals,
        ``for <name> in range(...)`` loops with launch-invariant trip
        counts (barriers legal inside), ``LocalAccessor`` tiles across
        barrier phases, and the scalar builtins ``abs``/``min``/``max``/
        ``float`` plus ``math.*`` with numpy lowerings — see the
        "Batchable dialect" table in ``docs/performance.md``.
        """
        from .vectorize import eligible_form  # lazy: avoids an import cycle

        return eligible_form(self)

    def with_attributes(self, **kwargs) -> "KernelSpec":
        """Return a copy with updated attributes (optimization steps)."""
        new_attrs = replace(self.attributes, **kwargs)
        return replace(self, attributes=new_attrs)

    def with_loop(self, loop_name: str, **pragmas) -> "KernelSpec":
        """Return a copy with pragmas applied to one named loop."""
        found = False
        loops = []
        for lp in self.loops:
            if lp.name == loop_name:
                loops.append(lp.with_pragmas(**pragmas))
                found = True
            else:
                loops.append(lp)
        if not found:
            raise InvalidParameterError(
                f"kernel {self.name!r} has no loop named {loop_name!r}"
            )
        return replace(self, loops=loops)

    def loop(self, name: str) -> LoopSpec:
        for lp in self.loops:
            if lp.name == name:
                return lp
        raise InvalidParameterError(f"kernel {self.name!r} has no loop {name!r}")

    def __repr__(self) -> str:
        return f"KernelSpec({self.name!r}, kind={self.kind})"
