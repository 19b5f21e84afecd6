"""The static exactness pass behind :func:`repro.sycl.vectorize.prove_exact`.

A compiled plan may run its batched program without a shadow run when
the per-item program and the batched program cannot differ in any bit
for one launch signature.  :func:`analyze` decides that by abstract
interpretation of the kernel source: every value is typed twice, once
as the per-item interpreter holds it and once as the batched program
does, under NumPy 2's NEP 50 promotion (evaluated on representatives of
each type, so numpy itself decides every promotion).  It refuses, with
the reason, any operation outside the exact allow-list, any dtype that
differs between the two programs, any store that could race between
work-items, and anything that could raise per item where numpy does
not.  A per-item Python int the batched program holds in an array (an
index id, and arithmetic on ids) is unbounded per item but a wrapping
``intp`` batched, so each carries bounds derived from the launch shape
and is refused once they may leave ``intp``.  Module-level numbers (and
tuples of them) count as constants.  Barrier kernels are proven like
any other: the race rule keeps every work-item off the slots another
writes, so no data crosses a barrier.

In launch mode (``sites`` given) scalar arguments count as this launch's
constants, and a lane-varying ``math.*`` call, ``**`` or ufunc outside
the allow-list is recorded as a residual site for replay validation
instead of refused.  Loaded only when a compiled plan first needs a
proof.
"""

from __future__ import annotations

import ast
import itertools
import math
import operator
import types

import numpy as np

from .local_memory import LocalAccessor
from .ndrange import NdRange
from .vectorize import (_EXACT_UFUNCS, _MATH_TO_NP, _SCALAR_ARGS,
                        _kernel_def, _literal_only, _site, translate)

__all__ = ["analyze"]


class _NotExact(Exception):
    """Why one launch signature cannot be proven; the message is the
    reason."""


def _no(reason: str):
    raise _NotExact(reason)


#: operations whose result on integer operands is exact at any width
_VALUE_OPS = frozenset({
    "minimum", "maximum", "logical_and", "logical_or", "logical_xor",
    "logical_not", "equal", "not_equal", "less", "less_equal", "greater",
    "greater_equal", "where"})
#: numpy callables that may build a launch-invariant value
_NP_INVARIANT = frozenset({
    "linspace", "arange", "zeros", "ones", "full", "array", "iinfo",
    "finfo", "dtype", "where"})
_BINOPS = {
    ast.Add: ("add", operator.add), ast.Sub: ("subtract", operator.sub),
    ast.Mult: ("multiply", operator.mul),
    ast.Div: ("true_divide", operator.truediv),
    ast.FloorDiv: ("floor_divide", operator.floordiv),
    ast.Mod: ("remainder", operator.mod),
    ast.BitAnd: ("bitwise_and", operator.and_),
    ast.BitOr: ("bitwise_or", operator.or_),
    ast.BitXor: ("bitwise_xor", operator.xor),
    ast.LShift: ("left_shift", operator.lshift),
    ast.RShift: ("right_shift", operator.rshift),
}
_BINOPS_BY_NAME = {name: fn for name, fn in _BINOPS.values()}
_CMPOPS = {
    ast.Eq: ("equal", operator.eq), ast.NotEq: ("not_equal", operator.ne),
    ast.Lt: ("less", operator.lt), ast.LtE: ("less_equal", operator.le),
    ast.Gt: ("greater", operator.gt), ast.GtE: ("greater_equal", operator.ge),
}
_INDEX_TERMS = {"get_global_id": "gid", "get_local_id": "lid",
                "get_group": "grp"}
_LINEAR_TERMS = {"get_global_linear_id": "lin",
                 "get_local_linear_id": "llin"}
#: abstract-interpretation rounds a loop may take to settle its types
_LOOP_ROUNDS = 8
#: the batched program's index ids, and what a per-item Python int must
#: stay inside to equal its batched counterpart
_INTP = np.iinfo(np.intp)
#: integers up to this magnitude convert to float64 exactly
_FLOAT_EXACT = 2 ** 53


class _Buf:
    """A buffer argument: its position, dtype and shape."""

    __slots__ = ("idx", "name", "dtype", "shape")

    def __init__(self, idx: int, name: str, arr: np.ndarray):
        self.idx, self.name = idx, name
        self.dtype, self.shape = arr.dtype, arr.shape


class _V:
    """One possibility for a value, held in both programs at once.

    ``s`` stands for the value in the per-item program and ``b`` in the
    batched one (``same``: one object both programs share).  A
    lane-varying value's ``b`` is a two-lane array; ``term`` names a raw
    index id (``("gid", d)``, ``("lin",)`` ...).  ``known``: ``s`` is
    the true per-item value, not only a representative of its type;
    ``span`` bounds an integer: a shared one such as a loop variable,
    or a Python int the batched program holds as an array (a lane id),
    which must have a span inside ``intp`` (the batched program's arrays
    wrap, Python's ints do not).
    """

    __slots__ = ("s", "b", "same", "lane", "term", "known", "span", "sd",
                 "bd")

    def __init__(self, s, b, *, same=False, lane=False, term=None,
                 known=False, span=None):
        self.s, self.b, self.same = s, b, same
        self.lane, self.term, self.known, self.span = lane, term, known, span
        #: dtypes of the two representatives (None: not a number)
        self.sd = _dtype_of(s)
        self.bd = self.sd if same else _dtype_of(b)
        if not same and type(s) is int and not _within(
                _span(self), _INTP.min, _INTP.max):
            _no("a per-item Python int may leave int64, where the batched "
                "program wraps")


def _uni(x, known=False, span=None) -> _V:
    return _V(x, x, same=True, known=known, span=span)


def _lane(s, dtype, term=None, span=None) -> _V:
    return _V(s, np.ones(2, dtype), lane=True, term=term, span=span)


class _Tup:
    """A tuple display: one value per element."""

    __slots__ = ("elts",)

    def __init__(self, elts: list):
        self.elts = elts


def _scalar(x) -> bool:
    return (isinstance(x, (bool, int, float, np.generic))
            or isinstance(x, np.ndarray) and x.ndim == 0)


_PY_DTYPES = {bool: np.dtype(bool), int: np.dtype(int),
              float: np.dtype(float), complex: np.dtype(complex)}


def _dtype_of(x) -> np.dtype | None:
    """The dtype of a numeric representative (Python scalars map to
    numpy's default dtype of their kind), else ``None``."""
    dtype = _PY_DTYPES.get(type(x))
    if dtype is not None:
        return dtype
    return x.dtype if isinstance(x, (np.generic, np.ndarray)) else None


def _kind(dtype) -> str:
    return "" if dtype is None else dtype.kind


def _dt(x) -> np.dtype:
    dtype = _dtype_of(x)
    return np.asarray(x).dtype if dtype is None else dtype


def _weak(x) -> bool:
    return type(x) in (int, float, bool)


def _tkey(x):
    if isinstance(x, np.ndarray):
        return ("nd", x.dtype.str, x.ndim)
    if isinstance(x, np.generic):
        return ("np", x.dtype.str)
    if isinstance(x, tuple):
        return ("tuple",) + tuple(_tkey(e) for e in x)
    if isinstance(x, (bool, int, float, complex, str, bytes, type(None))):
        return ("py", type(x))
    return ("obj", id(x))


def _vkey(x):
    if isinstance(x, np.ndarray):
        return id(x)
    return (_tkey(x), repr(x))


def _span(v: _V):
    if v.span is not None:
        return v.span
    if v.known and type(v.s) is int:
        return (v.s, v.s)
    return None


def _within(span, lo: int, hi: int) -> bool:
    return span is not None and lo <= span[0] and span[1] <= hi


def _int_span(name: str, a, b):
    """Bounds of a Python-int ``a <name> b`` from its operands' bounds
    (``None``: unbounded).  Floor division and remainder only reach
    here with a known nonzero divisor, shifts with a known count."""
    if a is None or b is None:
        return None
    if name == "add":
        return a[0] + b[0], a[1] + b[1]
    if name == "subtract":
        return a[0] - b[1], a[1] - b[0]
    if name == "remainder":
        d = b[0]
        return (0, d - 1) if d > 0 else (d + 1, 0)
    if name in ("bitwise_and", "bitwise_or", "bitwise_xor"):
        bits = max(abs(x).bit_length() for x in (*a, *b))
        return -(1 << bits), (1 << bits) - 1
    fn = _BINOPS_BY_NAME.get(name)
    if fn is None:
        return None
    # multiply, floor_divide and the shifts are monotonic in each
    # operand over these domains: the extremes are at the corners
    corners = [fn(x, y) for x in a for y in b]
    return min(corners), max(corners)


def _unary_span(op, a):
    if a is None:
        return None
    if isinstance(op, ast.USub):
        return -a[1], -a[0]
    if isinstance(op, ast.Invert):
        return ~a[1], ~a[0]
    return a


def _abs_span(a):
    if a is None:
        return None
    if a[0] >= 0:
        return a
    if a[1] <= 0:
        return -a[1], -a[0]
    return 0, max(-a[0], a[1])


def _join(values) -> tuple:
    """The union of variant lists, one variant per type: variants of one
    type whose known values differ merge into an unknown one."""
    values = tuple(values)
    if len(values) == 1:
        return values
    groups: dict = {}
    for v in values:
        key = (v.lane, v.same, v.term, _tkey(v.s),
               None if v.same else _tkey(v.b))
        prev = groups.get(key)
        if prev is None:
            groups[key] = v
        elif not (prev.known and v.known and _vkey(prev.s) == _vkey(v.s)):
            a, b = _span(prev), _span(v)
            hull = None if a is None or b is None else (
                min(a[0], b[0]), max(a[1], b[1]))
            groups[key] = _V(prev.s, prev.b, same=prev.same,
                             lane=prev.lane, term=prev.term, span=hull)
    return tuple(groups.values())


def _values_key(vals: tuple) -> frozenset:
    return frozenset((v.lane, v.same, v.term, _tkey(v.s),
                      None if v.same else _tkey(v.b),
                      _vkey(v.s) if v.known else None, v.span) for v in vals)


def _same_env(a: dict, b: dict) -> bool:
    """Whether two abstract environments hold the same variants."""
    if a.keys() != b.keys():
        return False
    for name, (vals, shared) in a.items():
        other, other_shared = b[name]
        if shared != other_shared or vals is not other and (
                _values_key(vals) != _values_key(other)):
            return False
    return True


def _alias_of(e):
    """The local name ``e`` may return unchanged (a bare name, or a
    cast of one: ``np.float64(a) is a`` for a float64 array)."""
    while isinstance(e, ast.Call) and len(e.args) == 1:
        e = e.args[0]
    return e.id if isinstance(e, ast.Name) else None


def _evaluate(fn, *args, **kwargs):
    """``fn(*args)`` on representatives (under the prover's
    ``np.errstate``); any exception refuses the proof."""
    try:
        return fn(*args, **kwargs)
    except Exception as exc:  # noqa: BLE001 — any failure refuses
        _no(f"cannot evaluate {getattr(fn, '__name__', fn)} "
            f"({type(exc).__name__}: {exc})")


def _injective(terms: set, gdims: tuple, ldims: tuple) -> bool:
    """Whether index ids ``terms`` tell every work-item apart."""
    if ("lin",) in terms:
        return True
    for d, (g, l) in enumerate(zip(gdims, ldims)):
        if ("gid", d) in terms:
            continue
        if ((g // l == 1 or ("grp", d) in terms)
                and (l == 1 or ("lid", d) in terms)):
            continue
        return False
    return True


def _replay_form(v: _V) -> str:
    """How the interpreter holds a residual call's operand, rebuilt by
    replay validation from the batched program's element: ``"py"`` a
    Python scalar (``tolist``), ``"np"`` a numpy scalar, ``"0d"`` a 0-d
    array.  Each must rebuild the per-item value exactly."""
    s, bd = v.s, v.bd
    if type(s) is int and bd.kind in "iu" or type(s) in (bool, float) \
            and bd == _PY_DTYPES[type(s)]:
        return "py"
    if isinstance(s, np.generic) and s.dtype == bd:
        return "np"
    if isinstance(s, np.ndarray) and s.ndim == 0 and s.dtype == bd:
        return "0d"
    _no(f"a residual call's operand is {_dt(s)} per item but {bd} batched")


class _Prover:
    """Abstract interpretation of one kernel body, typing every value in
    the per-item program and in the batched program at once (NEP 50
    promotion, evaluated on representatives of each type).  Raises
    :class:`_NotExact` at the first construct it cannot prove."""

    def __init__(self, fn, gdims: tuple, ldims: tuple, sites=None):
        self.fn = fn
        self.glb = fn.__globals__
        self.gdims, self.ldims = gdims, ldims
        #: launch mode: the residual call sites found so far (``None``:
        #: the signature-wide mode, which refuses them)
        self.sites = sites
        self.env: dict = {}
        self.access: dict = {}
        self.writes: set = set()
        #: None, "masked" (a predicated region: dead lanes' subscripts
        #: are neutralized) or "unmasked" (a conditional-expression arm
        #: or short-circuit operand the interpreter may not evaluate)
        self.spec = None

    def prove(self, args: tuple) -> tuple:
        """The written buffers' argument positions, once proven."""
        fdef = _kernel_def(self.fn)
        params = [a.arg for a in fdef.args.args]
        if len(params) != len(args) + 1:
            _no("argument count does not match the kernel")
        self.index = params[0]
        self.bufs = {}
        for idx, (name, arg) in enumerate(zip(params[1:], args)):
            self.env[name] = ((self.argument(idx, name, arg),), False)
        self.block(fdef.body)
        for idx in sorted(self.writes):
            forms = self.access[idx]
            name = self.bufs[idx].name
            if len(forms) != 1:
                _no(f"buffer {name!r} is written and also touched at "
                    "another index")
            form = next(iter(forms))
            terms = {t for t in form if t is not None}
            if "derived" in terms or not _injective(terms, self.gdims,
                                                    self.ldims):
                _no(f"buffer {name!r} is written at an index that is not "
                    "a distinct id per work-item")
        return tuple(sorted(self.writes))

    def argument(self, idx: int, name: str, arg) -> _V:
        if isinstance(arg, np.ndarray):
            if arg.dtype.kind not in "biuf" or arg.dtype.kind == "f" \
                    and arg.dtype.itemsize not in (4, 8):
                _no(f"buffer {name!r} has dtype {arg.dtype}")
            buf = self.bufs[idx] = _Buf(idx, name, arg)
            return _uni(buf)
        if isinstance(arg, LocalAccessor):
            _no("LocalAccessor tiles are not proven")
        if arg is None or isinstance(arg, _SCALAR_ARGS):
            return _uni(arg, known=self.sites is not None)
        _no(f"argument {name!r} of type {type(arg).__name__}")

    # -- statements --------------------------------------------------------

    def block(self, stmts) -> None:
        for s in stmts:
            if isinstance(s, ast.Assign):
                self.bind(s.targets[0], self.expr(s.value), s.value)
            elif isinstance(s, ast.AugAssign):
                self.aug_assign(s)
            elif isinstance(s, ast.If):
                self.if_stmt(s)
            elif isinstance(s, ast.For):
                self.for_stmt(s)
            elif not isinstance(s, (ast.Pass, ast.Return, ast.Expr)):
                _no(f"unsupported statement {type(s).__name__}")

    def bind(self, target, value, src) -> None:
        if isinstance(target, ast.Name):
            alias = _alias_of(src) if src is not None else None
            if alias in self.env:
                self.env[alias] = (self.env[alias][0], True)
            self.env[target.id] = (self.values(value), alias is not None)
        elif isinstance(target, ast.Subscript):
            self.store(target, self.values(value))
        elif isinstance(target, ast.Tuple):
            parts = self.unpack(value, len(target.elts))
            srcs = (src.elts if isinstance(src, ast.Tuple)
                    else [None] * len(parts))
            for t, part, e in zip(target.elts, parts, srcs):
                self.bind(t, part, e)
        else:
            _no(f"assignment to {type(target).__name__}")

    def unpack(self, value, n: int) -> list:
        if isinstance(value, _Tup):
            if len(value.elts) != n:
                _no("tuple unpacking of the wrong length")
            return value.elts
        parts = [[] for _ in range(n)]
        for v in value:
            if not (v.same and isinstance(v.s, tuple) and len(v.s) == n):
                _no("unpacking a value that is not a fixed tuple")
            for part, x in zip(parts, v.s):
                part.append(_uni(x, known=v.known))
        return [_join(p) for p in parts]

    def aug_assign(self, s: ast.AugAssign) -> None:
        rhs = self.values(self.expr(s.value))
        if isinstance(s.target, ast.Subscript):
            out = []
            for buf, cur in self.subscript(s.target, write=False):
                for a in cur:
                    for b in rhs:
                        r = self.binop(s.op, a, b)
                        # the batched program updates a gathered copy in
                        # place, which needs a same-kind cast back
                        if not np.can_cast(r.bd, buf.dtype, "same_kind"):
                            _no(f"in-place update of {buf.name!r} "
                                f"({buf.dtype}) with a {r.bd} value")
                        out.append(r)
            self.store(s.target, _join(out))
            return
        name = s.target.id
        if name not in self.env:
            _no(f"augmented assignment to unbound {name!r}")
        cur, shared = self.env[name]
        out = []
        for a in cur:
            in_place_s = isinstance(a.s, np.ndarray)
            in_place_b = isinstance(a.b, np.ndarray)
            if a.same and in_place_s:
                _no(f"in-place update of the launch-invariant array {name!r}")
            if (in_place_s or in_place_b) and (shared or a.term):
                _no(f"in-place update of {name!r}, which may alias another "
                    "name or a read-only index table")
            for b in rhs:
                r = self.binop(s.op, a, b)
                if (in_place_s and r.sd != a.s.dtype
                        or in_place_b and r.bd != a.b.dtype):
                    _no(f"dtype divergence: in-place update of {name!r} "
                        "keeps its dtype where a rebinding would not")
                out.append(r)
        self.env[name] = (_join(out), shared)

    def if_stmt(self, s: ast.If) -> None:
        self.truth(self.values(self.expr(s.test)))
        if (len(s.body) == 1 and isinstance(s.body[0], ast.Return)
                and not s.orelse):
            return  # a guard: the batched body returns once no lane lives
        saved, self.spec = self.spec, self.spec or "masked"
        self.block(s.body)
        self.block(s.orelse)
        self.spec = saved

    def for_stmt(self, s: ast.For) -> None:
        bounds = [self.values(self.expr(a)) for a in s.iter.args]
        for vals in bounds:
            for v in vals:
                if not (v.same and _kind(v.sd) in "iu"):
                    _no("loop bounds must be launch-invariant integers")
        span, first = None, 0
        if all(len(vals) == 1 and vals[0].known for vals in bounds):
            steps = range(*[int(vals[0].s) for vals in bounds])
            if steps:
                span, first = (min(steps), max(steps)), steps[0]
        var = _uni(first, span=span)
        entry = dict(self.env)
        head = entry
        for _ in range(_LOOP_ROUNDS):
            self.env = dict(head)
            self.env[s.target.id] = ((var,), False)
            self.block(s.body)
            merged = {}
            for name in entry.keys() | self.env.keys():
                a = entry.get(name, ((), False))
                b = self.env.get(name, ((), False))
                merged[name] = (a[0] if a[0] == b[0] else _join(a[0] + b[0]),
                                a[1] or b[1])
            if _same_env(merged, head):
                break
            head = merged
        else:
            _no("loop-carried types do not settle")
        self.env = head

    # -- memory ------------------------------------------------------------

    def keys(self, node) -> list:
        comps = node.elts if isinstance(node, ast.Tuple) else [node]
        if any(isinstance(c, ast.Slice) for c in comps):
            _no("slices are not proven")
        keys = [self.values(self.expr(c)) for c in comps]
        for vals in keys:
            for v in vals:
                if (_kind(v.sd) not in "iu" or _kind(v.bd) not in "iu"
                        or not _scalar(v.s) or not (v.lane or _scalar(v.b))):
                    _no("index is not one integer per work-item")
        return keys

    def bounded(self, v: _V, extent: int) -> None:
        """A launch-invariant index the batched program evaluates where
        the interpreter may not must be in bounds."""
        span = _span(v)
        if span is None or span[0] < -extent or span[1] >= extent:
            _no("an index may be out of bounds where only the batched "
                "program evaluates it")

    def subscript(self, e: ast.Subscript, *, write: bool) -> list:
        """``[(buffer or None, values)]`` for each base variant."""
        keys = self.keys(e.slice)
        out = []
        for base in self.values(self.expr(e.value)):
            if not base.same:
                _no("indexing a per-lane value")
            if isinstance(base.s, _Buf):
                out.append((base.s, self.buffer_access(base.s, keys, write)))
            elif write:
                _no("store into something other than a buffer argument")
            else:
                out.append((None, self.table_access(base, keys)))
        return out

    def buffer_access(self, buf: _Buf, keys: list, write: bool) -> tuple:
        if len(keys) != len(buf.shape):
            _no(f"buffer {buf.name!r} indexed by {len(keys)} of "
                f"{len(buf.shape)} dimensions")
        form, lane = [], False
        for extent, vals in zip(buf.shape, keys):
            terms = set()
            for v in vals:
                if v.lane:
                    lane = True
                    terms.add(v.term or "derived")
                    if self.spec == "unmasked" or extent == 0 and self.spec:
                        _no("a per-lane load the interpreter may skip")
                else:
                    terms.add(None)
                    if self.spec:
                        self.bounded(v, extent)
            form.append(terms.pop() if len(terms) == 1 else "derived")
        self.access.setdefault(buf.idx, set()).add(tuple(form))
        if write:
            self.writes.add(buf.idx)
        if lane:
            return (_lane(buf.dtype.type(1), buf.dtype),)
        return (_uni(buf.dtype.type(1)),)

    def table_access(self, base: _V, keys: list) -> tuple:
        rep = base.s
        if not any(v.lane for vals in keys for v in vals):
            # one launch-invariant element, the same in both programs
            # (a key that differs only in dtype picks the same element)
            out = []
            for combo in itertools.product(*keys):
                known = base.known and all(v.known for v in combo)
                if self.spec and not known:
                    _no("an index may be out of bounds where only the "
                        "batched program evaluates it")
                key = tuple(v.s for v in combo)
                out.append(_uni(_evaluate(operator.getitem, rep, key if len(
                    key) > 1 else key[0]), known=known))
            return _join(out)
        if self.spec == "unmasked":
            _no("a per-lane load the interpreter may skip")
        if not (isinstance(rep, np.ndarray) and rep.ndim == len(keys)
                and rep.dtype.kind in "biuf"):
            _no("per-lane index into something other than a full array "
                "element")
        if self.spec and not (base.known and rep.size):
            _no("a per-lane load the interpreter may skip")
        for extent, vals in zip(rep.shape, keys):
            for v in vals:
                if not v.lane and self.spec:
                    self.bounded(v, extent)
        return (_lane(rep.dtype.type(1), rep.dtype),)

    def store(self, target: ast.Subscript, values: tuple) -> None:
        for buf, _ in self.subscript(target, write=True):
            for v in values:
                self.store_value(v, buf)

    @staticmethod
    def store_value(v: _V, buf: _Buf) -> None:
        s, kind = v.s, buf.dtype.kind
        if not _scalar(s) or _kind(v.sd) not in "biuf" \
                or _kind(v.bd) not in "biuf":
            _no(f"store of a non-scalar or complex value into {buf.name!r}")
        sk = _kind(v.sd)
        if kind in "iu" and sk == "f":
            _no(f"float value stored into integer buffer {buf.name!r}")
        if kind == "f" and not v.same and type(s) is int and not _within(
                _span(v), -_FLOAT_EXACT, _FLOAT_EXACT):
            # stored through a double per item, cast from intp batched
            _no(f"a Python int stored into float buffer {buf.name!r} may "
                "round twice per item")
        if kind not in "iu" or sk not in "iu":
            return
        if type(s) is int:
            info = np.iinfo(buf.dtype)
            if _within(_span(v), info.min, info.max):
                return
            _no(f"a Python int stored into {buf.dtype} buffer {buf.name!r} "
                "may raise OverflowError per item")
        if isinstance(s, np.generic) and not np.can_cast(
                s.dtype, buf.dtype, "safe"):
            _no(f"narrowing store: a {s.dtype} scalar into {buf.dtype} "
                f"buffer {buf.name!r} raises OverflowError per item")

    # -- expressions -------------------------------------------------------

    def values(self, value) -> tuple:
        """A tuple display as one launch-invariant tuple value."""
        if not isinstance(value, _Tup):
            return value
        if not all(len(e) == 1 and e[0].same for e in value.elts):
            _no("a tuple of per-lane values")
        return (_uni(tuple(e[0].s for e in value.elts),
                     known=all(e[0].known for e in value.elts)),)

    def truth(self, vals: tuple) -> None:
        for v in vals:
            if not _scalar(v.s) or _kind(v.sd) not in "biuf":
                _no("condition is not a real scalar")

    def expr(self, e):
        if isinstance(e, ast.Constant):
            return (_uni(e.value, known=True),)
        if (isinstance(e, (ast.BoolOp, ast.IfExp, ast.Call))
                or isinstance(e, ast.UnaryOp) and isinstance(e.op, ast.Not)
                or isinstance(e, ast.Compare) and len(e.ops) > 1) \
                and _literal_only(e):
            # lowered to numpy unless literal-only: then the batched
            # program keeps it Python, as the interpreter
            return (_uni(_evaluate(eval, compile(
                ast.Expression(body=e), "<literal>", "eval"),
                {"__builtins__": {"min": min, "max": max, "abs": abs}}),
                known=True),)
        if isinstance(e, ast.Name):
            return self.name(e.id)
        if isinstance(e, ast.BinOp):
            if isinstance(e.op, ast.Pow) and self.sites is None:
                _no("`**` is not exact (scalar and array powers round "
                    "differently)")
            left = self.values(self.expr(e.left))
            right = self.values(self.expr(e.right))
            if isinstance(e.op, ast.Pow):
                if any(type(a.s) is int and type(b.s) is int
                       for a in left for b in right):
                    _no("a Python int power is unbounded per item")
                return self.residual(e, operator.pow, operator.pow,
                                     [left, right])
            return _join(self.binop(e.op, a, b) for a in left for b in right)
        if isinstance(e, ast.UnaryOp):
            return _join(self.unary(e.op, v)
                         for v in self.values(self.expr(e.operand)))
        if isinstance(e, ast.BoolOp):
            return self.bool_op(e)
        if isinstance(e, ast.Compare):
            return self.compare(e)
        if isinstance(e, ast.IfExp):
            return self.if_exp(e)
        if isinstance(e, ast.Subscript):
            return _join(v for _, vals in self.subscript(e, write=False)
                         for v in vals)
        if isinstance(e, ast.Attribute):
            return self.attribute(e)
        if isinstance(e, ast.Call):
            return self.call(e)
        if isinstance(e, ast.Tuple):
            return _Tup([self.values(self.expr(x)) for x in e.elts])
        _no(f"unsupported expression {type(e).__name__}")

    def name(self, name: str) -> tuple:
        if name in self.env:
            return self.env[name][0]
        if name == self.index:
            return (_uni(self, known=True),)
        if name not in self.glb:
            _no(f"name {name!r} is not a local, argument or global")
        x = self.glb[name]
        known = not isinstance(x, np.ndarray) and (
            isinstance(x, (bool, int, float, str, type(None), types.ModuleType))
            or isinstance(x, tuple) and all(
                isinstance(t, (bool, int, float)) for t in x))
        return (_uni(x, known=known),)

    def attribute(self, e: ast.Attribute) -> tuple:
        out = []
        for v in self.values(self.expr(e.value)):
            if not (v.same and v.known and isinstance(
                    v.s, (types.ModuleType, np.iinfo, np.finfo, np.dtype))):
                _no(f"attribute .{e.attr} of a kernel value")
            out.append(_uni(_evaluate(getattr, v.s, e.attr), known=True))
        return tuple(out)

    def operands(self, *vs) -> None:
        for v in vs:
            if (_kind(v.sd) not in "biuf" or _kind(v.bd) not in "biuf"
                    or not _scalar(v.s) or not (v.lane or _scalar(v.b))):
                _no("operand is not a real scalar per work-item")

    def same_loop(self, op: str, vs) -> None:
        """The per-item and the batched operation must run in one dtype
        (NEP 50 promotion of each program's operands)."""
        ls = np.result_type(*[v.s for v in vs])
        lb = np.result_type(*[v.b for v in vs])
        if ls == lb:
            return
        if op in _VALUE_OPS and ls.kind in "biu" and lb.kind in "biu" \
                and all(_kind(v.sd) in "biu" and _kind(v.bd) in "biu"
                        for v in vs):
            # the same value in a narrower type per item, unless a
            # Python int operand does not fit it (OverflowError)
            info = np.iinfo(ls) if ls.kind in "iu" else None
            if all(type(v.s) is not int or info is not None and _within(
                    _span(v), info.min, info.max) for v in vs):
                return
            _no(f"{op}: a Python int may not fit the {ls} it runs in per "
                "item")
        _no(f"dtype divergence: {op} runs in {ls} per item but in {lb} "
            "batched")

    @staticmethod
    def float_exact(*vs) -> None:
        """Python ints that Python compares or divides exactly but numpy
        first rounds to float64 must convert without rounding."""
        for v in vs:
            if type(v.s) is int and not _within(_span(v), -_FLOAT_EXACT,
                                                 _FLOAT_EXACT):
                _no("a Python int beyond 2**53 meets a float (Python is "
                    "exact, numpy rounds it first)")

    def binop(self, op, a: _V, b: _V) -> _V:
        name, fn = _BINOPS.get(type(op), (type(op).__name__, None))
        if fn is None:
            _no(f"operator {name} is not exact")
        if not (a.same and b.same):
            self.operands(a, b)
            kinds = {_kind(a.sd), _kind(a.bd), _kind(b.sd), _kind(b.bd)}
            if "b" in kinds and name not in ("bitwise_and", "bitwise_or",
                                             "bitwise_xor"):
                _no(f"{name} on a boolean (Python and numpy disagree)")
            if "f" in kinds and name in ("floor_divide", "remainder"):
                _no(f"float {name} is not proven")
        if _weak(a.s) and _weak(b.s) and name in (
                "true_divide", "floor_divide", "remainder") and not (
                b.known and b.s != 0):
            _no(f"Python {name} by a value that may be 0 raises "
                "ZeroDivisionError per item")
        if name in ("left_shift", "right_shift") and not (
                b.known and type(b.s) is int and 0 <= b.s < 32):
            _no("shift by a count that is not a small constant")
        s = _evaluate(fn, a.s, b.s)
        span = _int_span(name, _span(a), _span(b)) if type(s) is int \
            else None
        if a.same and b.same:
            return _uni(s, known=a.known and b.known, span=span)
        if name == "true_divide" and type(a.s) is int and type(b.s) is int:
            self.float_exact(a, b)  # Python's int / int rounds once
        self.same_loop(name, (a, b))
        return _V(s, _evaluate(fn, a.b, b.b), lane=a.lane or b.lane,
                  span=span)

    def unary(self, op, v: _V) -> _V:
        if isinstance(op, ast.Not):
            self.truth((v,))
            return _V(not v.s, _evaluate(np.logical_not, v.b), lane=v.lane)
        fn = {ast.USub: operator.neg, ast.UAdd: operator.pos,
              ast.Invert: operator.invert}[type(op)]
        self.operands(v)
        if _kind(v.sd) == "b" or _kind(v.bd) == "b":
            _no("unary arithmetic on a boolean (Python and numpy disagree)")
        if v.same:
            return _uni(_evaluate(fn, v.s), known=v.known)
        return _V(_evaluate(fn, v.s), _evaluate(fn, v.b), lane=v.lane,
                  span=_unary_span(op, _span(v)))

    def logical(self, vals_list: list, fn) -> tuple:
        """``and``/``or`` (or a chained comparison): Python returns an
        operand, so every operand must be boolean per item."""
        for vals in vals_list:
            for v in vals:
                if not _scalar(v.s) or _kind(v.sd) != "b":
                    _no("`and`/`or` over non-boolean operands")
        out = []
        for combo in itertools.product(*vals_list):
            s = all(v.s for v in combo) if fn is np.logical_and \
                else any(v.s for v in combo)
            b = combo[0].b
            for v in combo[1:]:
                b = _evaluate(fn, b, v.b)
            out.append(_V(s, b, lane=any(v.lane for v in combo)))
        return _join(out)

    def skippable(self, exprs) -> list:
        """The values of ``exprs``, which the batched program evaluates
        for every live lane but the interpreter may skip."""
        saved, self.spec = self.spec, "unmasked"
        vals = [self.values(self.expr(x)) for x in exprs]
        self.spec = saved
        return vals

    def bool_op(self, e: ast.BoolOp) -> tuple:
        vals_list = [self.values(self.expr(e.values[0]))]
        vals_list += self.skippable(e.values[1:])
        return self.logical(vals_list, np.logical_and
                            if isinstance(e.op, ast.And) else np.logical_or)

    def compare(self, e: ast.Compare) -> tuple:
        operands = [self.values(self.expr(e.left)),
                    self.values(self.expr(e.comparators[0]))]
        operands += self.skippable(e.comparators[1:])
        pairs = []
        for op, left, right in zip(e.ops, operands, operands[1:]):
            name, fn = _CMPOPS[type(op)]
            out = []
            for a in left:
                for b in right:
                    self.operands(a, b)
                    s = _evaluate(fn, a.s, b.s)
                    if a.same and b.same:
                        out.append(_uni(s, known=a.known and b.known))
                        continue
                    if {type(a.s), type(b.s)} == {int, float}:
                        self.float_exact(a, b)
                    self.same_loop(name, (a, b))
                    out.append(_V(s, _evaluate(fn, a.b, b.b),
                                  lane=a.lane or b.lane))
            pairs.append(_join(out))
        return pairs[0] if len(pairs) == 1 else self.logical(
            pairs, np.logical_and)

    def options(self, what: str, combo, b) -> list:
        """Per-item results that return one operand (``x if c else y``,
        builtin ``min``/``max``) against one batched array: each operand
        must convert to the batched dtype without changing its value."""
        bd = _dt(b)
        out = []
        for v in combo:
            sd = v.sd
            ok = (sd == bd or sd.kind == bd.kind
                  and np.can_cast(sd, bd, "safe"))
            if not ok and v.known and _scalar(v.s) and bd.kind in "biuf":
                ok = bool(_evaluate(bd.type, v.s) == v.s)
            if not ok:
                _no(f"dtype divergence: {what} is {sd} per item but {bd} "
                    "batched")
            out.append(_V(v.s, b, lane=isinstance(b, np.ndarray)
                          and b.ndim > 0, known=v.known, span=_span(v)))
        return out

    def if_exp(self, e: ast.IfExp) -> tuple:
        test = self.values(self.expr(e.test))
        self.truth(test)
        body, orelse = self.skippable((e.body, e.orelse))
        out = []
        for t in test:
            for x in body:
                for y in orelse:
                    self.operands(x, y)
                    b = _evaluate(np.where, t.b, x.b, y.b)
                    out += self.options("a conditional expression",
                                        (x, y), b)
        return _join(out)

    def call(self, e: ast.Call) -> tuple:
        func = e.func
        if isinstance(func, ast.Name) and func.id in ("abs", "min", "max",
                                                      "float"):
            args = [self.values(self.expr(a)) for a in e.args]
            return self.builtin(func.id, args)
        root = func
        while isinstance(root, ast.Attribute):
            root = root.value
        if not isinstance(root, ast.Name) or not isinstance(func,
                                                            ast.Attribute):
            _no("unsupported call")
        if root.id == self.index:
            return self.index_call(func.attr, e)
        module = self.glb.get(root.id) if root.id not in self.env else None
        modname = getattr(module, "__name__", "")
        if (self.sites is not None and module is math
                and func.value is root and func.attr in _MATH_TO_NP
                and not e.keywords):
            return self.residual(
                e, getattr(math, func.attr),
                getattr(np, _MATH_TO_NP[func.attr]),
                [self.values(self.expr(a)) for a in e.args])
        if not isinstance(module, types.ModuleType) or modname != "numpy" \
                or func.value is not root:
            _no(f"{ast.unparse(func)}() is not an allow-listed numpy "
                "call")
        fn = getattr(np, func.attr, None)
        args = [self.values(self.expr(a)) for a in e.args]
        kwargs = {kw.arg: self.values(self.expr(kw.value))
                  for kw in e.keywords}
        if kwargs and None in kwargs:
            _no("**kwargs in a numpy call")
        invariant = all(v.same for vals in (*args, *kwargs.values())
                        for v in vals)
        is_cast = isinstance(fn, type) and issubclass(fn, np.generic)
        if invariant:
            if not (isinstance(fn, np.ufunc) or is_cast
                    or func.attr in _NP_INVARIANT):
                _no(f"np.{func.attr} is not a deterministic constructor")
            out = []
            names = list(kwargs)
            # a ufunc, np.where, or a cast to a float type, of numbers
            # never raises
            safe = isinstance(fn, np.ufunc) or fn is np.where or is_cast \
                and np.dtype(fn).kind in "fb"
            for combo in itertools.product(*args, *kwargs.values()):
                known = all(v.known for v in combo)
                if is_cast:
                    self.operands(*combo)
                if self.spec and not known and not safe:
                    _no(f"np.{func.attr}() may raise where only the batched "
                        "program calls it")
                reps = [v.s for v in combo]
                r = _evaluate(fn, *reps[:len(args)],
                              **dict(zip(names, reps[len(args):])))
                out.append(_uni(r, known=known))
            return _join(out)
        if kwargs:
            _no(f"keyword arguments to a per-lane np.{func.attr}()")
        if fn is np.where and len(args) == 3:
            return self.np_where(args)
        if is_cast and len(args) == 1:
            return self.np_cast(fn, args[0])
        if isinstance(fn, np.ufunc) and func.attr in _EXACT_UFUNCS:
            return self.np_ufunc(func.attr, fn, args)
        if self.sites is not None and isinstance(fn, np.ufunc) \
                and fn.nout == 1 and fn.nin == len(args):
            return self.residual(e, fn, fn, args)
        _no(f"np.{func.attr} is not in the exact allow-list (not "
            "correctly rounded, or not elementwise)")

    def np_where(self, args: list) -> tuple:
        out = []
        for c, x, y in itertools.product(*args):
            self.truth((c,))
            self.operands(x, y)
            self.same_loop("where", (x, y))
            out.append(_V(_evaluate(np.where, c.s, x.s, y.s),
                          _evaluate(np.where, c.b, x.b, y.b),
                          lane=c.lane or x.lane or y.lane))
        return _join(out)

    def np_cast(self, cls, vals: tuple) -> tuple:
        out = []
        dst = np.dtype(cls)
        for v in vals:
            self.operands(v)
            for x in (v.s, v.b):
                if not np.can_cast(_dt(x), dst, "safe"):
                    _no(f"narrowing cast of {_dt(x)} to {dst}")
            out.append(_V(_evaluate(cls, v.s), _evaluate(cls, v.b),
                          lane=v.lane))
        return _join(out)

    def np_ufunc(self, name: str, fn, args: list) -> tuple:
        out = []
        for combo in itertools.product(*args):
            self.operands(*combo)
            kinds = {d.kind for v in combo for d in (v.sd, v.bd)}
            if "f" in kinds and name in ("floor_divide", "remainder"):
                _no(f"float np.{name} is not proven")
            self.same_loop(name, combo)
            out.append(_V(_evaluate(fn, *[v.s for v in combo]),
                          _evaluate(fn, *[v.b for v in combo]),
                          lane=any(v.lane for v in combo)))
        return _join(out)

    def residual(self, node, item_fn, batched_fn, args: list) -> tuple:
        """A call outside the exact allow-list, in launch mode: the
        per-item program calls ``item_fn``, the batched one
        ``batched_fn``.  A lane-varying (or, for two callables, any)
        call is recorded as a residual site, which replay validation
        checks per live lane on the operands in the interpreter's form
        (:func:`_replay_form`); it must be elementwise over real scalars
        and return one dtype in both programs."""
        out, forms = [], set()
        for combo in itertools.product(*args):
            self.operands(*combo)
            s = _evaluate(item_fn, *[v.s for v in combo])
            b = _evaluate(batched_fn, *[v.b for v in combo])
            if item_fn is batched_fn and all(v.same for v in combo):
                out.append(_uni(s, known=all(v.known for v in combo)))
                continue
            if not _scalar(s) or _dtype_of(s) != _dt(b):
                _no(f"dtype divergence: a residual call returns {_dt(s)} "
                    f"per item but {_dt(b)} batched")
            forms.add(tuple(_replay_form(v) for v in combo))
            out.append(_V(s, b, lane=any(v.lane for v in combo)))
        if forms:
            site = _site(node)
            if site in self.sites:
                forms.add(self.sites[site][1])
            if len(forms) > 1:
                _no("a residual call's operands change form between "
                    "variants")
            self.sites[site] = (item_fn, forms.pop())
        return _join(out)

    def builtin(self, name: str, args: list) -> tuple:
        """``abs``, and ``min``/``max``/``float``, which the batched
        program lowers to ``np.minimum``/``np.maximum``/``np.float64``."""
        if len(args) != 1 and name in ("abs", "float") or len(args) < 2 \
                and name in ("min", "max"):
            _no(f"{name}() with {len(args)} arguments")
        out = []
        for combo in itertools.product(*args):
            self.operands(*combo)
            lane = any(v.lane for v in combo)
            if name == "abs":
                v = combo[0]
                if _kind(v.sd) == "b" or _kind(v.bd) == "b":
                    _no("abs() of a boolean (Python and numpy disagree)")
                out.append(_uni(abs(v.s), known=v.known) if v.same
                           else _V(abs(v.s), abs(v.b), lane=lane,
                                   span=_abs_span(_span(v))))
            elif name == "float":
                v = combo[0]
                out.append(_V(float(v.s), np.float64(v.b), lane=lane))
            else:
                fn = np.minimum if name == "min" else np.maximum
                b = combo[0].b
                for v in combo[1:]:
                    b = _evaluate(fn, b, v.b)
                if "f" in {_kind(v.sd) for v in combo}:
                    odd = sorted({str(v.sd) for v in combo
                                  if v.sd != _dt(b)})
                    if odd:
                        _no(f"dtype divergence: {name}() returns "
                            f"{' or '.join(odd)} per item but {_dt(b)} "
                            "batched")
                    _no(f"builtin {name}() on floats orders NaN and signed "
                        f"zeros differently from np.{fn.__name__}")
                out += self.options(f"{name}()", combo, b)
        return _join(out)

    def index_call(self, method: str, e: ast.Call) -> tuple:
        args = [self.values(self.expr(a)) for a in e.args]
        if e.keywords or not all(len(a) == 1 and a[0].known for a in args):
            _no(f"{method}() needs constant arguments")
        dims = [a[0].s for a in args]
        if method in _LINEAR_TERMS and not dims:
            count = math.prod(self.gdims if method == "get_global_linear_id"
                              else self.ldims)
            return (_lane(1, np.intp, (_LINEAR_TERMS[method],),
                          (0, count - 1)),)
        if len(dims) != 1 or not 0 <= dims[0] < len(self.gdims):
            _no(f"{method}() needs one dimension")
        d = dims[0]
        if method in _INDEX_TERMS:
            count = {"get_global_id": self.gdims[d],
                     "get_local_id": self.ldims[d],
                     "get_group": self.gdims[d] // self.ldims[d]}[method]
            return (_lane(1, np.intp, (_INDEX_TERMS[method], d),
                          (0, count - 1)),)
        extent = {"get_global_range": self.gdims[d],
                  "get_local_range": self.ldims[d],
                  "get_group_range": self.gdims[d] // self.ldims[d]}.get(
                      method)
        if extent is None:
            _no(f"index method {method}() is not proven")
        return (_uni(extent, known=True),)


def analyze(item_fn, nd_range: NdRange, args: tuple,
            sites: dict | None = None) -> tuple:
    """``(None, written buffer positions)`` when this launch signature
    of ``item_fn`` is exact, else ``(reason, ())``.  With ``sites`` the
    pass runs in launch mode (see
    :func:`~repro.sycl.vectorize.prove_exact`) and, on success, records
    the residual call sites there."""
    if nd_range.total_items() == 0:
        return "empty launch", ()
    if translate(item_fn)[0] is None:
        return "not batchable", ()
    found = None if sites is None else {}
    prover = _Prover(item_fn, nd_range.global_range.dims,
                     nd_range.local_range.dims, found)
    try:
        with np.errstate(all="ignore"):
            written = prover.prove(args)
    except _NotExact as exc:
        return str(exc), ()
    if sites is not None:
        sites.update(found)
    return None, written
