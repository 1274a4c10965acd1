"""Certificate-first kernel: ``nk.inv`` and the Frobenius-first gates give the
verdicts, exception values and bits of the SVD forms they stand in for.

``nk.inv`` is checked against ``nk.solve(m, E)`` with the smallest singular
value swept through [tau/10, 10 tau] around the singularity threshold tau,
under four tolerance policies.  Each gate is checked against its spectral
norm form on matrices placed just inside and just outside the gate; the gates
of ``defect_block``, ``neumann_extension``, ``ExitSpaceModel``, the Neumann
tail check and ``SpectralAtoms`` also in place, by their verdicts and
messages.  A spy on one ``verify --suite all`` run pins how often the SVD
fallbacks still run.  ``_worst_norm`` is checked bit for bit against the
running maximum of ``op_norm`` it stands in for, and spies pin the SVDs it
and the printed ``verify`` residuals take.
"""

import contextlib
import io
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gresolv as g
import gresolv.numkernel as nk
from gresolv import cli
from gresolv.errors import GresolvError, NotContraction, Singular
from gresolv.operators import parameter_frames

POLICIES = {
    "default": nk.DEFAULT_TOL,
    "abs_floor=1e-9": nk.TolPolicy(abs_floor=1e-9),
    "no floor": nk.TolPolicy(abs_floor=0.0, rank_rel=0.0),
    # a relative threshold within reach of the certificate
    "rank_rel=1e-8": nk.TolPolicy(abs_floor=0.0, rank_rel=1e-8),
}


def _outcome(fn, *args):
    """The result of ``fn(*args)`` as bytes, or the type and value of what it raised."""
    try:
        value = fn(*args)
    except Singular as exc:
        return "Singular", exc.smallest_sv
    except (ValueError, np.linalg.LinAlgError) as exc:
        return type(exc).__name__, str(exc)
    return value.shape, value.tobytes()


def _svd_route(m):
    return nk.solve(m, np.eye(m.shape[0], dtype=np.complex128))


def _with_singular_values(s, rng):
    n = s.size
    return nk.haar_unitary(n, rng) @ np.diag(s).astype(complex) @ nk.haar_unitary(n, rng)


def _random_complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


@pytest.mark.parametrize("policy", POLICIES)
@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 12), seed=st.integers(0, 2**32 - 1), log_ratio=st.floats(-1.0, 1.0),
       log_scale=st.sampled_from([-3.0, 0.0, 3.0, 8.0]))
def test_inv_matches_the_svd_route_around_the_threshold(policy, n, seed, log_ratio, log_scale):
    tol = POLICIES[policy]
    rng = np.random.default_rng(seed)
    sigma_max = 10.0 ** log_scale
    tau = tol.threshold(sigma_max, n)
    if tau == 0.0:
        # no threshold: sweep around the certificate's own limit instead
        tau = 1e-13 * sigma_max
    sigma_min = min(sigma_max, tau * 10.0 ** log_ratio)
    s = np.sort(np.exp(rng.uniform(np.log(sigma_min), np.log(sigma_max), n)))[::-1]
    s[0], s[-1] = sigma_max, sigma_min
    m = _with_singular_values(s, rng)
    with nk.tolerance(tol):
        assert _outcome(nk.inv, m) == _outcome(_svd_route, m)


@pytest.mark.parametrize("policy", POLICIES)
def test_inv_matches_the_svd_route_on_degenerate_input(policy):
    tol = POLICIES[policy]
    rng = np.random.default_rng(7)
    cases = [np.zeros((3, 3), dtype=complex), np.diag([1.0, 0.0, 2.0]).astype(complex),
             np.ones((4, 4), dtype=complex), np.zeros((0, 0), dtype=complex),
             1e-200 * _random_complex(rng, (3, 3)), 1e160 * _random_complex(rng, (3, 3)),
             _random_complex(rng, (2, 3))]
    for bad in (np.nan, np.inf, -np.inf, complex(0.0, np.nan)):
        m = _random_complex(rng, (3, 3))
        m[1, 2] = bad
        cases.append(m)
    with nk.tolerance(tol):
        for m in cases:
            assert _outcome(nk.inv, m) == _outcome(_svd_route, m)
        with pytest.raises(ValueError, match="finite"):
            nk.inv(cases[-1])


@pytest.mark.parametrize("n", range(1, 25))
def test_leading_columns_of_the_inverse_are_a_partial_solve(n):
    """``dilation_resolvent`` takes the first columns of ``nk.inv`` for the
    output of ``solve(M, E[:, :k])``; a BLAS that breaks this must fail here
    rather than move output bytes."""
    rng = np.random.default_rng(n)
    m = np.eye(n) + 0.5 * _random_complex(rng, (n, n)) / np.sqrt(n)
    x = nk.inv(m)
    assert x.tobytes() == np.linalg.solve(m, np.eye(n, dtype=complex)).tobytes()
    for k in range(1, n + 1):
        part = np.linalg.solve(m, np.eye(n, dtype=complex)[:, :k])
        assert x[:, :k].copy().tobytes() == part.tobytes()


def _near(rng, k, level, shift, spread):
    """k values: one at ``level * (1 + shift)``, the rest ``level`` times
    ``spread`` times a uniform draw; ``spread`` near 1 defeats the Frobenius test."""
    values = level * spread * rng.uniform(0.0, 1.0, k)
    values[rng.integers(k)] = level * (1.0 + shift)
    return values


SHIFTS = st.one_of(st.floats(-1e-2, 1e-2), st.floats(-1e-10, 1e-10))
SPREADS = st.sampled_from([0.0, 0.5, 1.0, 1.0 + 1e-3])


def _gate_cases(draw_shape):
    return given(shape=draw_shape, seed=st.integers(0, 2**32 - 1), shift=SHIFTS, spread=SPREADS)


@settings(max_examples=150, deadline=None)
@_gate_cases(st.tuples(st.integers(1, 10), st.integers(0, 10)))
def test_isometry_gate_matches_its_spectral_form(shape, seed, shift, spread):
    n, k = shape[0], min(shape)
    rng = np.random.default_rng(seed)
    for gate in (nk.STRUCT_GATE, nk.BUILT_GATE):
        if k == 0:
            m = np.zeros((n, 0), dtype=complex)
        else:
            # M* M - E has eigenvalues d: a defect of about the gate
            d = _near(rng, k, gate, shift, spread) * rng.choice([-1.0, 1.0], k)
            m = nk.haar_frame(n, k, rng) @ np.diag(np.sqrt(1.0 + d)) @ nk.haar_unitary(k, rng)
        within = nk.isometry_defect(m) <= gate
        assert nk.is_isometric(m, gate) == within
        assert nk.is_unitary(m, gate) == (m.shape[0] == m.shape[1] and within)
        if gate == nk.STRUCT_GATE:
            try:
                nk.Subspace(m)
                accepted = True
            except ValueError:
                accepted = False
            assert accepted == within


@settings(max_examples=150, deadline=None)
@_gate_cases(st.tuples(st.integers(1, 10), st.sampled_from([1e-3, 1.0, 1e4])))
def test_hermitian_gate_matches_its_spectral_form(shape, seed, shift, spread):
    n, scale = shape
    rng = np.random.default_rng(seed)
    h = _random_complex(rng, (n, n))
    h = scale * (h + h.conj().T) / nk.op_norm(h + h.conj().T)
    gate = nk.STRUCT_GATE
    # skew part with singular values about the gate relative to max(1, ||h||)
    skew_sv = _near(rng, n, gate * max(1.0, scale) / 2.0, shift, spread)
    k = _with_singular_values(skew_sv, rng)
    m = h + (k - k.conj().T) / 2.0
    expected = nk.op_norm(m - m.conj().T) <= gate * max(1.0, nk.op_norm(m))
    assert nk.is_hermitian(m, gate) == expected


@settings(max_examples=150, deadline=None)
@_gate_cases(st.tuples(st.integers(1, 10), st.integers(1, 10)))
def test_contraction_gate_matches_its_spectral_form(shape, seed, shift, spread):
    rows, cols = shape
    rng = np.random.default_rng(seed)
    k = min(rows, cols)
    s = _near(rng, k, 1.0 + nk.CONTRACTION_SLACK, shift, spread)
    m = nk.haar_frame(rows, k, rng) @ np.diag(s) @ nk.haar_frame(cols, k, rng).conj().T
    norm = nk.op_norm(m)
    expected = f"parameter norm {norm:.6f} exceeds 1" if norm > 1.0 + nk.CONTRACTION_SLACK else None
    try:
        nk.check_contraction(m, "parameter norm")
        raised = None
    except NotContraction as exc:
        raised = str(exc)
    assert raised == expected


def _spectral_within(m, bound, scale=None):
    """The SVD form of ``nk._norm_within``."""
    return nk.op_norm(m) <= bound * (1.0 if scale is None else max(1.0, nk.op_norm(scale)))


def _with_norm(rng, rows, cols, values):
    """A rows x cols matrix with the singular values ``values``."""
    k = len(values)
    return nk.haar_frame(rows, k, rng) @ np.diag(values) @ nk.haar_frame(cols, k, rng).conj().T


#: the gates that decide by Frobenius bounds first outside ``numkernel``:
#: defect_block's leak (1e-8) and reassembly (1e-9) gates, relative to a norm,
#: its contraction gate (1 + 1e-10 near the anchor, 1 + 256 eps |lam| far out)
#: and neumann_extension's off-defect test (STRUCT_GATE)
OUTER_GATES = (1e-8, 1e-9, 1.0 + 1e-10, 1.0 + 256.0 * nk._EPS * 1e6, nk.STRUCT_GATE)


@settings(max_examples=200, deadline=None)
@given(shape=st.tuples(st.integers(1, 10), st.integers(1, 10)), seed=st.integers(0, 2**32 - 1),
       shift=SHIFTS, spread=SPREADS, gate=st.sampled_from(OUTER_GATES),
       scale_norm=st.sampled_from([None, 0.25, 1.0, 1.0 + 1e-10, 3.0]))
def test_relative_gate_matches_its_spectral_form(shape, seed, shift, spread, gate, scale_norm):
    rows, cols = shape
    rng = np.random.default_rng(seed)
    k = min(rows, cols)
    scale = None if scale_norm is None else \
        _with_norm(rng, rows, cols, _near(rng, k, scale_norm, 0.0, spread))
    level = gate * max(1.0, scale_norm or 0.0)
    m = _with_norm(rng, rows, cols, _near(rng, k, level, shift, spread))
    assert nk._norm_within(m, gate, scale) == _spectral_within(m, gate, scale)


def _gate_outcome(fn, *args, **kwargs):
    """The bytes of what ``fn`` returns, or the type and message it raised."""
    try:
        value = fn(*args, **kwargs)
    except (GresolvError, ValueError) as exc:
        return type(exc).__name__, str(exc)
    if isinstance(value, tuple):  # an extension and its class
        ext, cls = value
        return ext.dom.basis.tobytes(), ext.action.tobytes(), cls
    return value.tobytes()


def _both_forms(monkeypatch, fn, *args, **kwargs):
    """The outcome of ``fn`` with the gates as they are and in their SVD form."""
    fast = _gate_outcome(fn, *args, **kwargs)
    with monkeypatch.context() as patch:
        patch.setattr(nk, "_norm_within", _spectral_within)
        spectral = _gate_outcome(fn, *args, **kwargs)
    return fast, spectral


NEAR = [-1e-2, -1e-10, 1e-10, 1e-2]


def _symmetric_with_frames(seed):
    """A symmetric operator on C^6 with defect numbers (2, 2) and the parameter
    frames at the anchor 1j, whose overlap leaves the test systems well posed."""
    rng = np.random.default_rng(seed)
    a = g.SymmetricOp.random(6, 4, rng)
    src, dst = (pair.n_space for pair in parameter_frames(a, 1j))
    return rng, a, src, dst


@pytest.mark.parametrize("shift", NEAR)
@pytest.mark.parametrize("spread", [0.0, 1.0])
@pytest.mark.parametrize("case", ["leak", "leak-relative", "contraction", "contraction-far"])
def test_defect_block_gates_match_their_spectral_form(case, spread, shift, monkeypatch):
    """A resolvent value built so that defect_block's Cayley transform sends the
    anchor defect frame to ``dst C + L``, with L orthogonal to ``dst``: the
    leak or the block norm sits within ``shift`` of its gate."""
    rng, a, src, dst = _symmetric_with_frames(3)
    n, k = src.basis.shape
    z = 1j
    lam = 1e6j if case == "contraction-far" else 2j
    if case.startswith("leak"):
        c = _with_norm(rng, k, k, _near(rng, k, 3.0 if case == "leak-relative" else 0.5, 0.0, 0.5))
        image_norm = nk.op_norm(c)
        off = (np.eye(n) - nk.projector(dst)) @ (rng.standard_normal((n, k))
                                                 + 1j * rng.standard_normal((n, k)))
        u, _, vh = np.linalg.svd(off, full_matrices=False)
        leak = u @ np.diag(_near(rng, k, 1e-8 * max(1.0, image_norm), shift, spread)) @ vh
    else:
        gate = max(1e-10, 256.0 * nk._EPS * abs(lam))
        c = _with_norm(rng, k, k, _near(rng, k, 1.0 + gate, shift, spread))
        leak = np.zeros((n, k), dtype=complex)
    p = nk.projector(src)
    w = (dst.basis @ c + leak) @ src.basis.conj().T + 2.0 * (np.eye(n) - p)
    y = (w - np.eye(n)) / (z - np.conj(z))
    r_val = np.linalg.inv(np.linalg.inv(y) - (lam - z) * np.eye(n))
    r = g.ResolventModel(a, lambda point, b=False: r_val)
    fast, spectral = _both_forms(monkeypatch, g.defect_block, r, a, z, lam, validate=False)
    assert fast == spectral


@pytest.mark.parametrize("shift", NEAR)
@pytest.mark.parametrize("spread", [0.0, 1.0])
@pytest.mark.parametrize("side", ["src", "dst"])
def test_off_defect_gate_matches_its_spectral_form(side, spread, shift, monkeypatch):
    """A parameter whose source frame or image leaves its defect space by about
    ``STRUCT_GATE``; past the gate, the extension is built as before."""
    rng, a, src, dst = _symmetric_with_frames(4)
    n, k = src.basis.shape
    frame = src if side == "src" else dst
    away = nk.orthogonal_complement(frame).basis[:, :k]
    tilt = away @ np.diag(_near(rng, k, nk.STRUCT_GATE, shift, spread))
    if side == "src":
        t = g.PartialMap(nk.orthonormalize(src.basis + tilt), 0.5 * dst.basis)
    else:
        t = g.PartialMap(src, 0.5 * dst.basis + tilt)
    # a fresh operator per form: the source gate's verdict is memoized on it
    fast, spectral = _both_forms(
        monkeypatch, lambda: g.neumann_extension(type(a)(a.dom, a.action), 1j, t))
    assert fast == spectral


def _assert_decided_alike(monkeypatch, fn, shift):
    """Both forms of the gates give the same outcome, and a shift of 1e-2 puts
    it on the side of the gate that the shift's sign says."""
    fast, spectral = _both_forms(monkeypatch, fn)
    assert fast == spectral
    if abs(shift) > 1e-4:
        assert isinstance(fast, tuple) == (shift > 0)


@pytest.mark.parametrize("shift", NEAR)
@pytest.mark.parametrize("spread", [0.0, 1.0])
@pytest.mark.parametrize("kind", ["unitary", "hermitian"])
def test_model_extension_gate_matches_its_spectral_form(kind, spread, shift, monkeypatch):
    """A block-diagonal big operator whose inner block reproduces the inner
    action up to a residual of about 1e-10 max(1, ||big||) (3 for the
    Hermitian model)."""
    rng = np.random.default_rng(5)
    n, d, m = 5, 3, 2
    dom = nk.haar_frame(n, d, rng)
    if kind == "unitary":
        inner, outer = nk.haar_unitary(n, rng), nk.haar_unitary(m, rng)
    else:
        q = nk.haar_unitary(n, rng)
        inner = q @ np.diag([3.0, -2.0, 1.0, 0.5, -0.25]).astype(complex) @ q.conj().T
        outer = np.diag([1.0, -1.5]).astype(complex)
    big = np.block([[inner, np.zeros((n, m))], [np.zeros((m, n)), outer]])
    level = 1e-10 * max(1.0, nk.op_norm(big))
    action = inner @ dom + _with_norm(rng, n, d, _near(rng, d, level, shift, spread))
    cls = g.IsometryOp if kind == "unitary" else g.SymmetricOp
    op = cls(nk.Subspace(dom), action)

    def model_bytes():
        return g.ExitSpaceModel(big, op).big_op

    _assert_decided_alike(monkeypatch, model_bytes, shift)


@pytest.mark.parametrize("shift", NEAR)
@pytest.mark.parametrize("spread", [0.0, 1.0])
def test_neumann_tail_gate_matches_its_spectral_form(spread, shift, monkeypatch):
    """The extension of a parameter checked against that parameter moved by
    about 1e-8: the recovered parameter differs from it by the move."""
    rng, a, src, dst = _symmetric_with_frames(6)
    n, k = src.basis.shape
    t = g.PartialMap(src, 0.5 * dst.basis)
    ext, _ = g.neumann_extension(a, 1j, t)
    moved = g.PartialMap(src, t.matrix + _with_norm(rng, n, k, _near(rng, k, 1e-8, shift, spread)))

    def tail_check():
        g.extensions._check_neumann_tail(a, 1j, moved, ext)
        return moved.matrix

    _assert_decided_alike(monkeypatch, tail_check, shift)


@pytest.mark.parametrize("shift", NEAR)
@pytest.mark.parametrize("spread", [0.0, 1.0])
def test_atom_weights_gate_matches_its_spectral_form(spread, shift, monkeypatch):
    """Two circle atoms whose weights, complementary projectors plus a
    semidefinite excess on the first, sum to the identity up to about 1e-9."""
    rng = np.random.default_rng(7)
    n = 4
    frame = nk.haar_unitary(n, rng)
    low, high = frame[:, :2], frame[:, 2:]
    u = nk.haar_unitary(n, rng)
    excess = u @ np.diag(_near(rng, n, 1e-9, shift, spread)).astype(complex) @ u.conj().T
    atoms = ((0.5, low @ low.conj().T + excess), (2.0, high @ high.conj().T))

    def locations():
        return g.SpectralAtoms("circle", atoms).locations()

    _assert_decided_alike(monkeypatch, locations, shift)


#: upper bounds on the SVD fallbacks of one ``verify --suite all`` run of the
#: file below; with a per-call SVD the counts are about 1,100 and 2,000
INV_FALLBACK_BOUND = 10
GATE_OP_NORM_BOUND = 150


def test_verify_run_takes_few_svd_fallbacks(tmp_path, monkeypatch):
    path = tmp_path / "sym16.json"
    cli.save_instance(cli.generate_instance("symmetric", 16, 8, 2, seed=16), path)
    counts = {"inv": 0, "solve": 0, "gate": 0, "op_norm": 0}
    gates = {fn.__code__ for fn in (nk._norm_within, nk.is_hermitian, nk.check_contraction)}

    def solve(*args, _real=nk.solve):
        counts["solve"] += 1
        counts["inv"] += sys._getframe(1).f_code is nk.inv.__code__
        return _real(*args)

    def op_norm(m, _real=nk.op_norm):
        counts["op_norm"] += 1
        counts["gate"] += sys._getframe(1).f_code in gates
        return _real(m)

    monkeypatch.setattr(nk, "solve", solve)
    monkeypatch.setattr(nk, "op_norm", op_norm)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["verify", str(path), "--suite", "all"]) == 0
    # the spies saw the run: the other solves and the printed residuals remain
    assert counts["solve"] > 0 and counts["op_norm"] > counts["gate"]
    assert counts["inv"] <= INV_FALLBACK_BOUND, counts
    assert counts["gate"] <= GATE_OP_NORM_BOUND, counts


def _running_max(mats):
    worst = 0.0
    for m in mats:
        worst = max(worst, nk.op_norm(m))
    return worst


def _norm_set(rng, case):
    """A set of 0 to 40 matrices of one ``case``; shapes n x k with n, k <= 16."""
    count = int(rng.integers(0, 41))
    n, k = (int(v) for v in rng.integers(0, 17, 2))
    if case == "mixed-shapes":
        return [_random_complex(rng, tuple(rng.integers(0, 17, 2))) for _ in range(count)]
    if case == "rank-one":
        # ||M|| = ||M||_F: the Frobenius bound is tight, so it never rules a member out
        return [np.outer(_random_complex(rng, n), _random_complex(rng, k)) for _ in range(count)]
    mats = [10.0 ** rng.uniform(-2, 2) * _random_complex(rng, (n, k)) for _ in range(count)]
    if case == "equal-frobenius":
        mats = [m / nk._fro(m) if m.size else m for m in mats]
    if case == "dominant" and mats:
        mats[rng.integers(count)] *= 1e4
    if case in ("scale-1e150", "scale-1e-150"):
        mats = [float(case[6:]) * m for m in mats]
    return mats


NORM_SET_CASES = ["general", "mixed-shapes", "rank-one", "equal-frobenius", "dominant",
                  "scale-1e150", "scale-1e-150"]


@pytest.mark.parametrize("case", NORM_SET_CASES)
def test_worst_norm_is_the_running_max_bit_for_bit(case):
    rng = np.random.default_rng(NORM_SET_CASES.index(case))
    for _ in range(300):
        mats = _norm_set(rng, case)
        want = _running_max(mats)
        got = nk._worst_norm(iter(mats))
        assert np.float64(got).tobytes() == np.float64(want).tobytes(), (case, got, want)


def test_worst_norm_fails_and_skips_as_the_loop_does():
    rng = np.random.default_rng(3)
    mats = [_random_complex(rng, (4, 4)) for _ in range(5)]
    assert nk._worst_norm([]) == 0.0
    # an infinite entry makes the SVD norm nan, which the running max drops
    with_inf = mats + [np.full((4, 4), np.inf, dtype=complex)]
    assert nk._worst_norm(with_inf) == _running_max(with_inf)
    # a nan entry makes the SVD raise, however small the other entries are
    with_nan = [1e3 * m for m in mats] + [np.full((4, 4), np.nan, dtype=complex)]
    for fn in (nk._worst_norm, _running_max):
        with pytest.raises(np.linalg.LinAlgError):
            fn(with_nan)


def test_op_norm_is_numpys_spectral_norm_bit_for_bit():
    rng = np.random.default_rng(11)
    for _ in range(1500):
        shape = tuple(int(v) for v in rng.integers(1, 33, 2))
        m = 10.0 ** rng.choice([-150, -5, 0, 5, 150]) * _random_complex(rng, shape)
        for view in (m, m.T, m.real, m[::2, ::3]):
            want = np.linalg.norm(view, 2)
            assert np.float64(nk.op_norm(view)).tobytes() == np.float64(want).tobytes()
    # a nan entry raises in both; an infinite one gives nan in both
    m = np.eye(3, dtype=complex)
    m[1, 2] = np.nan
    for fn in (nk.op_norm, lambda x: np.linalg.norm(x, 2)):
        with pytest.raises(np.linalg.LinAlgError):
            fn(m)
    m[1, 2] = np.inf
    assert np.isnan(nk.op_norm(m)) and np.isnan(np.linalg.norm(m, 2))


def test_one_dominant_member_costs_one_svd(monkeypatch):
    rng = np.random.default_rng(5)
    mats = [_random_complex(rng, (8, 8)) for _ in range(30)]
    mats[17] = 100.0 * mats[17]
    want = _running_max(mats)
    calls = []

    def op_norm(m, _real=nk.op_norm):
        calls.append(m)
        return _real(m)

    monkeypatch.setattr(nk, "op_norm", op_norm)
    assert nk._worst_norm(mats) == want
    assert len(calls) == 1 and calls[0] is mats[17]


#: upper bound on the ``op_norm`` calls of one ``verify --suite all`` run of the
#: files below that are not gate fallbacks; an SVD per printed sample makes
#: about 150 and 200
RESIDUAL_OP_NORM_BOUND = 20


@pytest.mark.parametrize("kind", ["isometric", "symmetric"])
def test_verify_run_takes_few_residual_svds(kind, tmp_path, monkeypatch):
    path = tmp_path / f"{kind}16.json"
    cli.save_instance(cli.generate_instance(kind, 16, 8, 2, seed=16), path)
    gates = {fn.__code__ for fn in (nk._norm_within, nk.is_hermitian, nk.check_contraction)}
    counts = {"gate": 0, "other": 0}

    def op_norm(m, _real=nk.op_norm):
        counts["gate" if sys._getframe(1).f_code in gates else "other"] += 1
        return _real(m)

    monkeypatch.setattr(nk, "op_norm", op_norm)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["verify", str(path), "--suite", "all"]) == 0
    assert 0 < counts["other"] <= RESIDUAL_OP_NORM_BOUND, counts
