"""SYCL index-space types: ``range``, ``id``, ``nd_range``, ``nd_item``.

These reproduce the semantics of the SYCL 2020 index classes used by the
migrated Altis kernels: up to 3 dimensions, row-major linearization, and
the group/local decomposition of an ``nd_range``.

A deliberate difference from C++ SYCL: :class:`NdItem.barrier` does not
block — work-item synchronization is realized by the executor, which runs
barrier-using kernels as generators (``yield item.barrier()``).  The
barrier call records the requested fence scope on the token it returns;
no model times fences by scope.  The cost of DPCT's un-narrowed
global-scope fences (a warning category in §3.2.1 of the paper) enters
the figures as the ``barrier_global_scope`` variant trait.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterator, Sequence

from ..common.errors import InvalidParameterError

__all__ = [
    "FenceSpace",
    "Range",
    "Id",
    "NdRange",
    "Group",
    "NdItem",
    "BarrierToken",
]


class FenceSpace(str, Enum):
    """``sycl::access::fence_space`` — barrier scope."""

    LOCAL = "local_space"
    GLOBAL = "global_space"
    GLOBAL_AND_LOCAL = "global_and_local"


def _as_dims(value) -> tuple[int, ...]:
    if isinstance(value, (Range, Id)):
        return value.dims
    if isinstance(value, int):
        return (value,)
    dims = tuple(int(v) for v in value)
    if not 1 <= len(dims) <= 3:
        raise InvalidParameterError(f"1-3 dimensions required, got {dims!r}")
    return dims


class Range:
    """``sycl::range`` — extents of an index space (1 to 3 dims)."""

    __slots__ = ("dims",)

    def __init__(self, *dims):
        if len(dims) == 1:
            d = dims[0]
            if type(d) is int:
                # fast path for the dominant 1-D launch shape (hot in
                # steady-state wavefronts: one Range pair per launch)
                if d < 0:
                    raise InvalidParameterError(f"negative extent in ({d},)")
                self.dims = (d,)
                return
            self.dims = _as_dims(d)
        else:
            self.dims = _as_dims(dims)
        if any(d < 0 for d in self.dims):
            raise InvalidParameterError(f"negative extent in {self.dims!r}")

    @property
    def ndim(self) -> int:
        return len(self.dims)

    def size(self) -> int:
        n = 1
        for d in self.dims:
            n *= d
        return n

    def get(self, i: int) -> int:
        return self.dims[i]

    def __getitem__(self, i: int) -> int:
        return self.dims[i]

    def __len__(self) -> int:
        return len(self.dims)

    def __iter__(self) -> Iterator[int]:
        return iter(self.dims)

    def __eq__(self, other) -> bool:
        if isinstance(other, Range):
            return self.dims == other.dims
        if isinstance(other, (tuple, list)):
            return self.dims == tuple(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(("Range", self.dims))

    def __repr__(self) -> str:
        return f"Range{self.dims}"


class Id:
    """``sycl::id`` — a point in an index space."""

    __slots__ = ("dims",)

    def __init__(self, *dims):
        if len(dims) == 1 and not isinstance(dims[0], int):
            self.dims = _as_dims(dims[0])
        else:
            self.dims = _as_dims(dims)

    def get(self, i: int) -> int:
        return self.dims[i]

    def __getitem__(self, i: int) -> int:
        return self.dims[i]

    def __len__(self) -> int:
        return len(self.dims)

    def __iter__(self) -> Iterator[int]:
        return iter(self.dims)

    def __int__(self) -> int:
        if len(self.dims) != 1:
            raise InvalidParameterError("only 1-D ids convert to int")
        return self.dims[0]

    def __index__(self) -> int:
        return int(self)

    def __eq__(self, other) -> bool:
        if isinstance(other, Id):
            return self.dims == other.dims
        if isinstance(other, int):
            return len(self.dims) == 1 and self.dims[0] == other
        if isinstance(other, (tuple, list)):
            return self.dims == tuple(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(("Id", self.dims))

    def __repr__(self) -> str:
        return f"Id{self.dims}"


def linear_index(point: Sequence[int], extents: Sequence[int]) -> int:
    """Row-major linearization, as SYCL defines ``get_linear_id``."""
    idx = 0
    for p, e in zip(point, extents):
        idx = idx * e + p
    return idx


class NdRange:
    """``sycl::nd_range`` — global range decomposed into work-groups."""

    __slots__ = ("global_range", "local_range")

    def __init__(self, global_range, local_range):
        self.global_range = global_range if isinstance(global_range, Range) else Range(global_range)
        self.local_range = local_range if isinstance(local_range, Range) else Range(local_range)
        if self.global_range.ndim != self.local_range.ndim:
            raise InvalidParameterError(
                f"dimensionality mismatch: global {self.global_range} "
                f"vs local {self.local_range}"
            )
        for g, l in zip(self.global_range, self.local_range):
            if l == 0:
                raise InvalidParameterError("work-group extent must be nonzero")
            if g % l != 0:
                raise InvalidParameterError(
                    f"global range {self.global_range} not divisible by "
                    f"local range {self.local_range}"
                )

    @property
    def ndim(self) -> int:
        return self.global_range.ndim

    def group_range(self) -> Range:
        return Range(tuple(g // l for g, l in zip(self.global_range, self.local_range)))

    def num_groups(self) -> int:
        return self.group_range().size()

    def group_size(self) -> int:
        return self.local_range.size()

    def total_items(self) -> int:
        return self.global_range.size()

    def __repr__(self) -> str:
        return f"NdRange(global={self.global_range}, local={self.local_range})"


@dataclass(frozen=True)
class BarrierToken:
    """Value yielded by barrier-using kernels at each synchronization point."""

    fence_space: FenceSpace


class Group:
    """``sycl::group`` — one work-group of an nd_range execution."""

    __slots__ = ("group_id", "nd_range")

    def __init__(self, group_id: tuple[int, ...], nd_range: NdRange):
        self.group_id = group_id
        self.nd_range = nd_range

    def get_group_id(self, i: int | None = None):
        if i is None:
            return Id(self.group_id)
        return self.group_id[i]

    def get_group_linear_id(self) -> int:
        return linear_index(self.group_id, self.nd_range.group_range().dims)

    def get_local_range(self, i: int | None = None):
        if i is None:
            return self.nd_range.local_range
        return self.nd_range.local_range[i]

    def __repr__(self) -> str:
        return f"Group(id={self.group_id})"


class NdItem:
    """``sycl::nd_item`` — the identity of one work-item in an nd_range.

    The executor constructs one per work-item per group; barrier-using
    kernels must ``yield item.barrier(...)`` at each synchronization point.
    """

    __slots__ = ("global_id", "local_id", "group")

    def __init__(self, global_id: tuple[int, ...], local_id: tuple[int, ...], group: Group):
        self.global_id = global_id
        self.local_id = local_id
        self.group = group

    # SYCL accessor API -----------------------------------------------------
    def get_global_id(self, i: int | None = None):
        if i is None:
            return Id(self.global_id)
        return self.global_id[i]

    def get_local_id(self, i: int | None = None):
        if i is None:
            return Id(self.local_id)
        return self.local_id[i]

    def get_group(self, i: int | None = None):
        if i is None:
            return self.group
        return self.group.group_id[i]

    def get_global_linear_id(self) -> int:
        return linear_index(self.global_id, self.group.nd_range.global_range.dims)

    def get_local_linear_id(self) -> int:
        return linear_index(self.local_id, self.group.nd_range.local_range.dims)

    def get_global_range(self, i: int | None = None):
        rng = self.group.nd_range.global_range
        return rng if i is None else rng[i]

    def get_local_range(self, i: int | None = None):
        rng = self.group.nd_range.local_range
        return rng if i is None else rng[i]

    def get_group_range(self, i: int | None = None):
        rng = self.group.nd_range.group_range()
        return rng if i is None else rng[i]

    def barrier(self, fence_space: FenceSpace = FenceSpace.GLOBAL_AND_LOCAL) -> BarrierToken:
        """Produce the token the executor synchronizes on.

        Usage inside a kernel: ``yield item.barrier(FenceSpace.LOCAL)``.
        """
        return BarrierToken(fence_space)

    def __repr__(self) -> str:
        return f"NdItem(global={self.global_id}, local={self.local_id})"
