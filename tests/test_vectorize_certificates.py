"""Persisted validation certificates can skip the shadow run, but only
when they are intact and their key matches.

A certificate lets a fresh process trust a batched program without
re-running the per-item interpreter.  That is only sound if nothing but
an intact certificate for exactly this launch can be trusted.  The
hypothesis properties below draw random batchable kernels (the grammar
of :mod:`tests.test_vectorize_fuzz`), earn a certificate, and then break
it in one of many ways: a damaged file, a foreign or stale payload in
its place, or a changed numpy version, host, code fingerprint, launch
range, dtype or shape.  In every case
the next launch must run full shadow validation and leave
interpreter-identical bytes.  Deterministic tests check that a real
certificate planted for a wrong program, or for a monkeypatched
``translate``, is ignored; that demotions are never stored; and that
cold, warm and ``--no-cache`` runs of ``repro suite --mode compiled``
print byte-identical reports.  Every test here but the CLI one refuses
static proofs (see :func:`repro.sycl.vectorize.prove_exact`), which
would otherwise prove most drawn kernels without a certificate.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.sycl import (  # noqa: E402
    KernelKind,
    KernelSpec,
    NdRange,
    Range,
    certificates,
    vectorize,
)
from repro.sycl.certificates import (  # noqa: E402
    CERTIFICATE_SCHEMA,
    CertificateStore,
    host_identity,
)
from repro.sycl.executor import run_nd_range  # noqa: E402
from repro.sycl.plan import (  # noqa: E402
    certificate_store,
    clear_plan_caches,
    get_plan,
    using_certificate_store,
)
from repro.trace import tracing  # noqa: E402
from repro.trace.metrics import registry  # noqa: E402
from tests.test_vectorize_fuzz import (  # noqa: E402
    _SETTINGS,
    _assemble_guard,
    _guard_body,
    _make_kernel,
)

REPO = Path(__file__).resolve().parent.parent
ND = NdRange(Range(64), Range(16))


#: the static exactness pass, kept for the tests that use it as an oracle
_PROVE_EXACT = vectorize.prove_exact


@pytest.fixture(autouse=True)
def _fresh_plans():
    clear_plan_caches()
    yield
    clear_plan_caches()


@pytest.fixture(autouse=True)
def _no_static_proofs(monkeypatch):
    """Most drawn kernels are exact; refusing the static pass keeps them
    on the certificate-or-shadow path these tests cover."""
    monkeypatch.setattr(vectorize, "prove_exact",
                        lambda *args, **kwargs: "refused by the test")


def _spec(fn, name="kcert"):
    return KernelSpec(name=name, kind=KernelKind.ND_RANGE, item_fn=fn)


def _interpreter(spec, nd, src, n):
    ref = np.zeros(n, dtype=src.dtype)
    run_nd_range(spec, nd, (ref, src, n), mode="item")
    return ref


def _compiled(spec, nd, src, n):
    """One compiled launch from a cold plan cache: (output, validated_by)."""
    clear_plan_caches()
    out = np.zeros(n, dtype=src.dtype)
    run_nd_range(spec, nd, (out, src, n), mode="compiled")
    return out, get_plan(spec, nd, mode="compiled").describe()["validated_by"]


def _only_certificate(store) -> Path:
    files = sorted(store.root.glob("*.json"))
    assert len(files) == 1, files
    return files[0]


# ---------------------------------------------------------------------------
# Damage: every way a certificate file can be wrong
# ---------------------------------------------------------------------------

def _rewrite(path: Path, mutate) -> None:
    doc = json.loads(path.read_text())
    mutate(doc)
    # the store's own serialization, so only the mutation differs
    path.write_text(json.dumps(doc, sort_keys=True, separators=(",", ":")))


def _stale(field, value):
    """The certificate's payload with one key component changed, kept
    at the path of the current key (a stale file in the right place)."""
    def mutate(doc):
        doc["payload"][field] = value
    return mutate


def _stale_arg(index, value):
    def mutate(doc):
        doc["payload"]["args"][1][index] = value
    return mutate


def _foreign(doc):
    other = dict(doc["payload"], kernel="some_other_kernel")
    doc["payload"] = other
    doc["key"] = CertificateStore.key_for(other)


_FILE_DAMAGE = {
    "schema": lambda p, d: _rewrite(p, lambda doc: doc.update(
        schema=CERTIFICATE_SCHEMA + 1)),
    "foreign": lambda p, d: _rewrite(p, _foreign),
    "stale-numpy": lambda p, d: _rewrite(p, _stale("numpy", "0.0.1")),
    "stale-host": lambda p, d: _rewrite(p, _stale(
        "host", dict(host_identity(), machine="another-machine"))),
    "stale-fingerprint": lambda p, d: _rewrite(p, _stale("code", "0" * 16)),
    "stale-dims": lambda p, d: _rewrite(p, _stale("local_range", [32])),
    "stale-dtype": lambda p, d: _rewrite(
        p, _stale_arg(1, "[('', '<f4')]")),
    "stale-shape": lambda p, d: _rewrite(p, _stale_arg(2, [1])),
    "empty": lambda p, d: p.write_bytes(b""),
    "truncate": lambda p, d: p.write_bytes(
        p.read_bytes()[:d.draw(st.integers(1, len(p.read_bytes()) - 1))]),
    "flip": lambda p, d: _flip(p, d),
    "directory": lambda p, d: (p.unlink(), p.mkdir()),
}


def _flip(path: Path, data) -> None:
    raw = bytearray(path.read_bytes())
    pos = data.draw(st.integers(0, len(raw) - 1))
    raw[pos] ^= data.draw(st.integers(1, 255))
    path.write_bytes(bytes(raw))




@_SETTINGS
@given(lines_names=_guard_body(), n=st.integers(min_value=33, max_value=64),
       seed=st.integers(min_value=0, max_value=2**16), data=st.data())
def test_damaged_certificate_forces_full_validation(lines_names, n, seed,
                                                    data):
    """Every damage mode, on every drawn kernel."""
    src_text = _assemble_guard(lines_names[0])
    spec = _spec(_make_kernel(src_text))
    src = np.random.default_rng(seed).random(n)
    ref = _interpreter(spec, ND, src, n)
    for damage in sorted(_FILE_DAMAGE):
        _check_damage(damage, spec, src, n, ref, data, src_text)


def _check_damage(damage, spec, src, n, ref, data, src_text):
    with tempfile.TemporaryDirectory() as root, \
            using_certificate_store(CertificateStore(root)) as store:
        out, how = _compiled(spec, ND, src, n)
        assert how == "shadow" and store.writes == 1
        path = _only_certificate(store)
        intact = path.read_bytes()
        _rewrite(path, lambda doc: None)
        assert path.read_bytes() == intact

        _FILE_DAMAGE[damage](path, data)
        out, how = _compiled(spec, ND, src, n)

        assert store.hits == 0, f"{damage}: a broken certificate was trusted"
        assert store.rejects == 1
        assert how == "shadow", f"{damage}: no full validation ran"
        assert out.tobytes() == ref.tobytes(), \
            f"{damage}: output diverged from the interpreter:\n{src_text}"
        if damage != "directory":  # a directory cannot be replaced
            # the miss re-validated and rewrote an intact certificate
            assert store.writes == 2 and path.read_bytes() == intact
            _, how = _compiled(spec, ND, src, n)
            assert how == "certificate"


def _environment_changes(src, n):
    """name -> (monkeypatch or None, nd, src, n) for each change of the
    key a later launch can bring: new numpy, another host (a shared
    cache directory), new code, new range, new dtype, new shape."""
    other_host = dict(host_identity(), cpu_features=["SSE", "SSE2"])
    return {
        "numpy": (lambda mp: mp.setattr(np, "__version__", "0.0.1"),
                  ND, src, n),
        "host": (lambda mp: mp.setattr(
            certificates, "host_identity", lambda: other_host), ND, src, n),
        "fingerprint": (lambda mp: mp.setattr(
            certificates, "code_fingerprint", lambda: "0" * 16), ND, src, n),
        "dims": (None, NdRange(Range(64), Range(32)), src, n),
        "dtype": (None, ND, src.astype(np.float32), n),
        "shape": (None, ND, src[:-1].copy(), n - 1),
    }


@_SETTINGS
@given(lines_names=_guard_body(), n=st.integers(min_value=33, max_value=64),
       seed=st.integers(min_value=0, max_value=2**16))
# literal-only min(): lowered to np.minimum it would be a float64 scalar
# that promotes the float32 ("dtype") lanes, and the plan would demote
@example(lines_names=(["v0 = src[i]", "v1 = (v0 + min(0.25, 0.25))",
                       "out[i] = out[i] + (0.25 + v1)"], ["v0", "v1"]),
         n=33, seed=0)
# builtin min() of a float32 lane and a float64 scalar returns either
# dtype per item; the batched np.minimum is always float64
@example(lines_names=(["v0 = src[i]", "v1 = min(v0, np.minimum(0.25, 0.25))",
                       "out[i] = out[i] + (0.25 * v1)"], ["v0", "v1"]),
         n=33, seed=0)
def test_changed_key_component_misses(lines_names, n, seed):
    """Every key change, on every drawn kernel.  A float32 launch of a
    kernel the static pass shows to diverge in dtype between the per-item
    and the batched program may demote instead of proving; it still
    finds no stale certificate and leaves the interpreter's bytes."""
    src_text = _assemble_guard(lines_names[0])
    spec = _spec(_make_kernel(src_text))
    src = np.random.default_rng(seed).random(n)
    f32 = src.astype(np.float32)
    why = _PROVE_EXACT(spec.item_fn, ND, (np.zeros(n, np.float32), f32, n))
    divergent = why is not None and why.startswith("dtype divergence")
    for change, (patch, nd2, src2, n2) in _environment_changes(src, n).items():
        with tempfile.TemporaryDirectory() as root, \
                using_certificate_store(CertificateStore(root)) as store:
            _compiled(spec, ND, src, n)
            assert store.writes == 1
            ref = _interpreter(spec, nd2, src2, n2)
            with pytest.MonkeyPatch.context() as mp:
                if patch is not None:
                    patch(mp)
                out, how = _compiled(spec, nd2, src2, n2)
            assert store.hits == 0, f"{change}: a stale certificate was found"
            if change == "dtype" and divergent:
                assert how in ("shadow", None)  # None: demoted
            else:
                assert how == "shadow"
            assert out.tobytes() == ref.tobytes(), \
                f"{change}: output diverged from the interpreter:\n{src_text}"


# ---------------------------------------------------------------------------
# Planted certificates, demotions, observability
# ---------------------------------------------------------------------------

def _plant_good(item, out, n):
    i = item.get_global_linear_id()
    if i >= n:
        return
    out[i] = out[i] + 1.0


def _plant_bad(item, out, n):
    # cross-lane accumulation: translates, but the batched program
    # (last writer wins) diverges from the interpreter
    i = item.get_global_linear_id()
    if i >= n:
        return
    out[i % 4] = out[i % 4] + 1.0


def _plant_launch(fn, n=64):
    """A compiled launch of ``fn`` as kernel ``kplant``: (out, plan)."""
    spec = _spec(fn, "kplant")
    clear_plan_caches()
    out = np.zeros(n)
    run_nd_range(spec, ND, (out, n), mode="compiled")
    return out, get_plan(spec, ND, mode="compiled")


def _interp_plant(fn, n=64):
    out = np.zeros(n)
    run_nd_range(_spec(fn, "kplant"), ND, (out, n), mode="item")
    return out


@pytest.mark.parametrize("n", [4, 5, 64])
def test_cross_lane_store_is_never_exact(n):
    """``_plant_bad``'s ``out[i % 4]`` (several work-items, one cell) is
    what the batched program's last-writer-wins store cannot reproduce:
    the static pass must refuse it at every size."""
    why = _PROVE_EXACT(_plant_bad, ND, (np.zeros(n), n))
    assert why is not None and "written" in why
    assert _PROVE_EXACT(_plant_good, ND, (np.zeros(n), n)) is None


def test_planted_certificate_for_wrong_program_is_ignored(tmp_path):
    """A genuine certificate, copied to where the wrong program's key
    points (same kernel name, range and argument signature), is still
    rejected: the file's payload names the other program's code."""
    with using_certificate_store(CertificateStore(tmp_path)) as store:
        _plant_launch(_plant_good)
        genuine = _only_certificate(store)
        ck = vectorize.compile_batched(_spec(_plant_bad, "kplant"), ND)[0]
        payload = certificates.certificate_payload(
            _spec(_plant_bad, "kplant"), _plant_bad, ck.fn, ND,
            (np.zeros(64), 64))
        planted = store.root / f"{CertificateStore.key_for(payload)}.json"
        planted.write_bytes(genuine.read_bytes())

        out, plan = _plant_launch(_plant_bad)
        assert store.hits == 0 and store.rejects == 1
        assert plan.path == "item" and plan.describe()["validated_by"] is None
        assert out.tobytes() == _interp_plant(_plant_bad).tobytes()
        assert store.writes == 1  # the demotion was not persisted


@pytest.mark.parametrize("kernel_fn, batched_from", [
    (_plant_good, _plant_bad),   # translate patched: new batched code
    (_plant_bad, _plant_good),   # kernel swapped: new interpreter code
], ids=["patched-translate", "patched-kernel"])
def test_monkeypatched_translate_cannot_reuse_certificate(
        tmp_path, monkeypatch, kernel_fn, batched_from):
    """The good kernel's certificate is on disk; a launch whose
    interpreter or batched code differs from it must not find it."""
    with using_certificate_store(CertificateStore(tmp_path)) as store:
        _plant_launch(_plant_good)
        assert store.writes == 1
        real = vectorize.translate
        patched = real(batched_from)
        monkeypatch.setattr(
            vectorize, "translate",
            lambda fn: patched if fn is kernel_fn else real(fn))
        out, plan = _plant_launch(kernel_fn)
        assert store.hits == 0
        assert plan.path == "item"  # shadow validation caught it
        assert out.tobytes() == _interp_plant(kernel_fn).tobytes()


def test_demotions_are_never_stored(tmp_path):
    with using_certificate_store(CertificateStore(tmp_path)) as store:
        out, plan = _plant_launch(_plant_bad)
        assert plan.path == "item"
        assert store.writes == 0 and not list(store.root.glob("*.json"))


def test_library_callers_persist_nothing(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert certificate_store() is None
    _, plan = _plant_launch(_plant_good)
    assert plan.describe()["validated_by"] == "shadow"
    assert not any(tmp_path.iterdir())


def test_installed_root_opens_store_on_first_use(tmp_path):
    """An installed cache root opens one store under
    ``<root>/certificates``, shared by every later launch."""
    with using_certificate_store(tmp_path):
        _plant_launch(_plant_good)
        store = certificate_store()
        assert store.root == tmp_path / "certificates"
        assert store.writes == 1 and certificate_store() is store
        _, plan = _plant_launch(_plant_good)
        assert plan.describe()["validated_by"] == "certificate"
    assert certificate_store() is None


def test_host_identity_names_python_machine_and_cpu():
    host = host_identity()
    assert host["python"] == sys.version
    assert host["cpu_features"] == sorted(host["cpu_features"])
    assert set(host) == {"python", "implementation", "machine",
                         "cpu_features"}


def test_validate_span_and_counters(tmp_path):
    def counter(name):
        return registry.counter(f"vectorize.certificate.{name}").value

    before = {k: counter(k) for k in ("hits", "misses", "writes", "rejects")}
    with using_certificate_store(CertificateStore(tmp_path)):
        with tracing() as tracer:
            _plant_launch(_plant_good)
            cold = [e for e in tracer.events() if e.name == "vectorize.validate"]
        with tracing() as tracer:
            _, plan = _plant_launch(_plant_good)
            warm = [e for e in tracer.events() if e.name == "vectorize.validate"]
    assert len(cold) == 1 and cold[0].args["kernel"] == "kplant"
    assert warm == []
    assert plan.describe()["validated_by"] == "certificate"
    delta = {k: counter(k) - before[k] for k in before}
    assert delta == {"hits": 1, "misses": 1, "writes": 1, "rejects": 0}


def test_concurrent_lookups_and_records_keep_exact_counts(tmp_path):
    """Thread-pool sweeps share one store: racing writers never tear the
    certificate, and no counter update is lost."""
    import threading

    store = CertificateStore(tmp_path)
    payload = {"kernel": "k", "form": "item", "args": [["scalar", "int"]]}
    threads, rounds = 8, 50

    def worker():
        for _ in range(rounds):
            store.lookup(payload)
            store.record(payload)

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        pool = [threading.Thread(target=worker) for _ in range(threads)]
        for t in pool:
            t.start()
        for t in pool:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in pool)
    finally:
        sys.setswitchinterval(previous)
    assert store.hits + store.misses == threads * rounds
    assert store.writes == threads * rounds and store.rejects == 0
    assert store.lookup(payload)
    assert [p.name for p in store.root.iterdir()] == [
        f"{CertificateStore.key_for(payload)}.json"]


# ---------------------------------------------------------------------------
# Across processes: the CLI
# ---------------------------------------------------------------------------

def _repro(*argv, cwd):
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    env.pop("REPRO_CACHE_DIR", None)
    proc = subprocess.run([sys.executable, "-m", "repro", *argv], cwd=cwd,
                          env=env, capture_output=True, check=True)
    return proc.stdout


def test_suite_reports_identical_cold_warm_and_no_cache(tmp_path):
    """Cold store, warm store and ``--no-cache`` print the same report;
    the warm run validates nothing and hits every certificate.  There
    are 17 compiled argument signatures (16 plans, plus CFD's one plan
    proven separately on its FP64 arguments): the static pass proves 10
    in every process and the store certifies the other 7, which a cold
    store validates by replay (LavaMD) or shadow run (the rest)."""
    cache = tmp_path / "cache"
    args = ("suite", "--mode", "compiled", "--cache-dir", str(cache))
    cold = _repro(*args, cwd=tmp_path)
    written = len(list((cache / "certificates").glob("*.json")))
    warm = _repro(*args, cwd=tmp_path)
    trace = tmp_path / "warm.json"
    traced = _repro(*args, "--trace", "--trace-out", str(trace), cwd=tmp_path)
    uncached = _repro("suite", "--mode", "compiled", "--no-cache",
                      cwd=tmp_path)
    cold_trace = tmp_path / "cold.json"
    traced_cold = _repro("suite", "--mode", "compiled", "--cache-dir",
                         str(tmp_path / "cold_cache"), "--trace",
                         "--trace-out", str(cold_trace), cwd=tmp_path)

    def counter(metrics, name):
        return metrics.get(name, {"value": 0})["value"]

    assert cold == warm == uncached
    assert b"suite: 13/13 ok" in cold
    assert traced.startswith(cold) and traced_cold.startswith(cold)
    doc = json.loads(trace.read_text())
    spans = [e for e in doc["traceEvents"]
             if e.get("name") == "vectorize.validate"]
    assert spans == []
    metrics = doc["otherData"]["metrics"]
    static = metrics["vectorize.static.proofs"]["value"]
    assert metrics["vectorize.certificate.hits"]["value"] == written == 7
    assert static == 10 and static + written == 17
    assert counter(metrics, "vectorize.certificate.misses") == 0
    assert counter(metrics, "vectorize.replay.checks") == 0
    doc = json.loads(cold_trace.read_text())
    metrics = doc["otherData"]["metrics"]
    assert counter(metrics, "vectorize.replay.checks") == 1
    assert counter(metrics, "vectorize.replay.mismatches") == 0
    hows = sorted((e["args"]["kernel"], e["args"]["how"])
                  for e in doc["traceEvents"]
                  if e.get("name") == "vectorize.validate")
    assert hows == [("lavamd_kernel", "replay")] + [
        ("needle_block", "shadow")] * 5 + [("scatter", "shadow")]
    # --no-cache wrote nothing to the default root in the working dir
    assert not (tmp_path / ".repro_cache").exists()
