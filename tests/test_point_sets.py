"""Point sets: a stacked ``nk.inv`` and ``ResolventModel.at`` give the bytes,
and the first error, of the single calls they stand in for.

``nk.inv`` on a ``(k, N, N)`` stack is compared with a loop of single
``nk.inv`` calls for N = 1 ... 32, on members that the certificate accepts,
members in the band around the singularity threshold, exactly singular and
non-finite members.  ``ResolventModel.at`` is compared with a loop of single
evaluations on dilation models of both kinds.  Spies pin how many
``np.linalg.inv`` calls one ``verify --suite axioms`` run makes, and that a
symmetric ``verify --suite oracle`` run inverts one stack.
"""

import contextlib
import io

import numpy as np
import pytest

import gresolv as g
import gresolv.numkernel as nk
from gresolv import cli
from gresolv.errors import Singular, SingularSystem
from gresolv.resolvents import DEFAULT_HALFPLANE_SAMPLES
from tests.conftest import random_isometric_model, random_symmetric_model


def _outcome(fn, *args):
    """What ``fn(*args)`` returns, as bytes, or the type and value it raised."""
    try:
        value = fn(*args)
    except Singular as exc:
        return "Singular", exc.smallest_sv
    except SingularSystem as exc:
        return "SingularSystem", exc.point, exc.smallest_sv
    except ValueError as exc:
        return "ValueError", str(exc)
    if isinstance(value, list):
        return [v.shape for v in value], b"".join(v.tobytes() for v in value)
    return value.shape, value.tobytes()


def _inv_loop(stack):
    return np.stack([nk.inv(member) for member in stack])


def _member(rng, n, sigma_min):
    """An n x n matrix with singular values in [sigma_min, 1], both attained."""
    s = np.sort(np.exp(rng.uniform(np.log(sigma_min), 0.0, n)))[::-1]
    s[0], s[-1] = 1.0, sigma_min
    return nk.haar_unitary(n, rng) @ np.diag(s).astype(complex) @ nk.haar_unitary(n, rng)


@pytest.mark.parametrize("n", range(1, 33))
def test_stacked_inv_matches_single_calls(n):
    rng = np.random.default_rng(1000 + n)
    tau = nk.DEFAULT_TOL.threshold(1.0, n)
    certified = [np.eye(n) + 0.5 * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
                 / np.sqrt(n) for _ in range(5)]
    # members around the threshold: some the certificate takes, some only the
    # SVD of ``solve`` decides, some it rejects
    band = [_member(rng, n, tau * 10.0 ** x) for x in (1.0, 0.3, 0.01, -0.01, -1.0)]
    singular = np.zeros((n, n), dtype=complex)
    singular[:, :-1] = certified[0][:, :-1]
    non_finite = certified[1].copy()
    non_finite[0, -1] = np.nan
    stacks = [
        certified,
        band[:3] + certified,
        certified[:2] + band,
        certified[:2] + [singular] + band,
        certified[:3] + [non_finite] + band,
        band[3:] + [non_finite],
        [band[1]],
        # scales far from 1: the certificate declines, the SVD decides
        certified[:1] + [1e160 * certified[2], 1e-200 * certified[3]] + band[:1],
    ]
    for members in stacks:
        stack = np.stack(members)
        assert _outcome(nk.inv, stack) == _outcome(_inv_loop, stack)
    # the bits of a stacked np.linalg.inv are those of single calls
    stack = np.stack(certified)
    assert nk.inv(stack).tobytes() == \
        b"".join(np.linalg.solve(m, np.eye(n, dtype=complex)).tobytes() for m in certified)


def test_stacked_inv_raises_the_first_failure_of_the_loop():
    rng = np.random.default_rng(5)
    good = [np.eye(4) + 0.1 * rng.standard_normal((4, 4)) for _ in range(3)]
    first, second = _member(rng, 4, 1e-12), _member(rng, 4, 1e-13)
    with pytest.raises(Singular) as stacked:
        nk.inv(np.stack(good[:1] + [first] + good[1:] + [second]))
    with pytest.raises(Singular) as single:
        nk.inv(first)
    assert stacked.value.smallest_sv == single.value.smallest_sv
    assert nk.inv(np.zeros((0, 3, 3))).shape == (0, 3, 3)
    with pytest.raises(ValueError, match="square"):
        nk.inv(np.zeros((2, 3, 4)))


@pytest.mark.parametrize("policy", [nk.DEFAULT_TOL, nk.TolPolicy(abs_floor=0.0, rank_rel=1e-8),
                                    nk.TolPolicy(abs_floor=1e-9, rank_rel=1e-3)])
def test_stacked_certificate_gives_each_members_single_verdict(policy):
    rng = np.random.default_rng(17)
    n = 4
    tau = policy.threshold(1.0, n)
    members = [np.eye(n) + 0.3 * rng.standard_normal((n, n))]
    members += [_member(rng, n, max(tau, 1e-15) * 10.0 ** x) for x in (2.0, 0.5, -0.5, -2.0)]
    # entries of size 0, 1e150 and 1e300 (whose squares overflow the norm), inf and nan
    members += [np.zeros((n, n)), 1e150 * members[0], 1e300 * members[0]]
    for bad in (np.inf, np.nan):
        member = members[0].copy()
        member[1, 2] = bad
        members.append(member)
    m = np.stack(members).astype(complex)
    x = np.stack([np.eye(n) if not np.all(np.isfinite(member)) or not member.any()
                  else np.linalg.inv(member) for member in m])
    with nk.tolerance(policy):
        each = nk._certified_each(m, x)
        assert each.tolist() == [nk._certified(mi, xi) for mi, xi in zip(m, x)]
    assert each[0] and not each[-2:].any()


def _spectrum_point(model):
    """A point where the dilation system of the model is singular."""
    eig = np.linalg.eigvals(model.big_op)[0]
    return np.conj(eig) / abs(eig) if model.kind == "unitary" else complex(eig.real)


@pytest.mark.parametrize("kind", ["isometric", "symmetric"])
def test_model_at_matches_pointwise_values(kind, rng):
    samples = list(g.resolvents.DEFAULT_DISK_SAMPLES if kind == "isometric"
                   else g.resolvents.DEFAULT_HALFPLANE_SAMPLES)
    for _ in range(4):
        if kind == "isometric":
            _, model = random_isometric_model(rng, n_max=16, m_max=16)
        else:
            _, model, _ = random_symmetric_model(rng, n_max=16, m_max=16)
        r = g.ResolventModel.from_dilation(model)
        ring = [samples[3] + 0.01 * np.exp(2j * np.pi * k / 16) for k in range(16)]
        for points in (samples, ring, samples[:2], samples[:1], []):
            assert _outcome(r.at, points) == _outcome(lambda ps: [r(p) for p in ps], points)
        # a point on the spectrum raises the SingularSystem of the loop
        points = samples[:3] + [_spectrum_point(model)] + samples[3:6]
        expected = _outcome(lambda ps: [r(p) for p in ps], points)
        assert expected[0] == "SingularSystem"
        assert _outcome(r.at, points) == expected


def test_pointwise_models_evaluate_sets_in_order():
    seen = []
    r = g.ResolventModel(g.PartialOperator.null(1),
                         lambda p, b=False: seen.append((p, b)) or np.eye(1, dtype=complex))
    assert len(r.at([0.5, 2j, 0.25])) == 3
    assert seen == [(0.5, False), (2j, False), (0.25, False)]


#: ``np.linalg.inv`` calls of ``verify --suite axioms`` on the files below:
#: 706 (isometric) and 716 (symmetric) with one call per point, 43 and 53
#: with one call per point set
AXIOM_INV_CALLS = 60


@pytest.mark.parametrize("kind", ["isometric", "symmetric"])
def test_axiom_suite_inverts_one_stack_per_point_set(kind, tmp_path, monkeypatch):
    path = tmp_path / f"{kind}16.json"
    cli.save_instance(cli.generate_instance(kind, 16, 8, 2, seed=16), path)
    calls = []

    def inv(m, _real=np.linalg.inv):
        calls.append(np.shape(m))
        return _real(m)

    monkeypatch.setattr(np.linalg, "inv", inv)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["verify", str(path), "--suite", "axioms"]) == 0
    assert any(len(shape) == 3 for shape in calls)
    assert len(calls) <= AXIOM_INV_CALLS, len(calls)


def test_symmetric_oracle_suite_inverts_the_half_plane_samples_once(tmp_path, monkeypatch):
    # the formula residual and the integral representation read one set of
    # oracle values at DEFAULT_HALFPLANE_SAMPLES
    path = tmp_path / "symmetric8.json"
    cli.save_instance(cli.generate_instance("symmetric", 8, 4, 2, seed=8), path)
    stacks = []

    def inv(m, _real=np.linalg.inv):
        if np.ndim(m) == 3:
            stacks.append(len(m))
        return _real(m)

    monkeypatch.setattr(np.linalg, "inv", inv)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["verify", str(path), "--suite", "oracle"]) == 0
    assert stacks == [len(DEFAULT_HALFPLANE_SAMPLES)] == [40]
