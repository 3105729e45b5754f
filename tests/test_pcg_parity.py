"""The one host CG loop against frozen copies of the loops it replaced.

``conjugate_gradient(..., precondition=...)`` is the only host-side CG
recurrence: plain CG, Jacobi-scaled CG and MG-preconditioned CG differ
only in ``z = M⁻¹ r``.  It used to exist three times.  None of the merge
may change a bit of ``x``, the iteration count or the residual history —
the reference backend's answers and goldens hang off them.  The
``_legacy_*`` functions below are the plain loop and the preconditioned
loop exactly as they stood before the merge (the Jacobi and multigrid
copies were the same text but for the ``z`` line, passed in here as
``apply_minv``); they are the oracle, not a second implementation to
maintain.
"""

from __future__ import annotations

import numpy as np
import pytest

from helpers import make_problem
from repro.fv.residual import compute_residual
from repro.mg import hierarchy_for_problem, mg_apply
from repro.physics.transient import TransientOperator, build_accumulation
from repro.solvers.cg import CGResult, conjugate_gradient
from repro.solvers.preconditioning import operator_diagonal, preconditioner_for
from repro.util.errors import ConvergenceError

# -- the frozen oracle --------------------------------------------------------


def _legacy_cg(operator, b, x0=None, *, tol_rtr, rel_tol=None, max_iters):
    b = np.asarray(b)
    if x0 is None:
        x = np.zeros_like(b)
        r = b.copy()
    else:
        x = np.array(x0, dtype=b.dtype, copy=True)
        r = b - operator(x)
    rtr = float(np.vdot(r, r).real)
    history = [rtr]
    threshold = rtr * rel_tol * rel_tol if rel_tol is not None else tol_rtr
    if rtr < threshold:
        return CGResult(x, 0, True, history)
    p = r.copy()
    Ap = np.empty_like(b)
    k = 0
    converged = False
    while k < max_iters:
        Ap[...] = operator(p)
        pap = float(np.vdot(p, Ap).real)
        if pap <= 0:
            raise ConvergenceError("CG breakdown", k, rtr)
        alpha = rtr / pap
        x += alpha * p
        r -= alpha * Ap
        rtr_new = float(np.vdot(r, r).real)
        history.append(rtr_new)
        k += 1
        if rtr_new < threshold:
            converged = True
            break
        beta = rtr_new / rtr
        p *= beta
        p += r
        rtr = rtr_new
    return CGResult(x, k, converged, history)


def _legacy_pcg(operator, apply_minv, b, x0=None, *, tol_rtr, max_iters):
    b = np.asarray(b)
    if x0 is None:
        x = np.zeros_like(b)
        r = b.copy()
    else:
        x = np.array(x0, dtype=b.dtype, copy=True)
        r = b - operator(x)
    z = apply_minv(r)
    p = z.copy()
    rtr = float(np.vdot(r, r).real)
    rz = float(np.vdot(r, z).real)
    history = [rtr]
    if rtr < tol_rtr:
        return CGResult(x, 0, True, history)
    Ap = np.empty_like(b)
    k = 0
    converged = False
    while k < max_iters:
        Ap[...] = operator(p)
        pap = float(np.vdot(p, Ap).real)
        if pap <= 0:
            raise ConvergenceError("PCG breakdown", k, rtr)
        alpha = rz / pap
        x += alpha * p
        r -= alpha * Ap
        rtr = float(np.vdot(r, r).real)
        history.append(rtr)
        k += 1
        if rtr < tol_rtr:
            converged = True
            break
        z[...] = apply_minv(r)
        rz_new = float(np.vdot(r, z).real)
        beta = rz_new / rz
        p *= beta
        p += z
        rz = rz_new
    return CGResult(x, k, converged, history)


def _legacy_minv(problem, name, dtype, acc):
    """The old loops' ``z`` line: ``(inv_diag * r).astype(b.dtype)`` with
    ``inv_diag = 1 / diag`` in the working dtype, or one V-cycle cast back."""
    if name == "jacobi":
        if acc is None:  # steady: the float64 diagonal cast to b's dtype
            diagonal = operator_diagonal(problem).astype(dtype)
        else:  # transient: built in the working dtype, plus the step's A
            diagonal = operator_diagonal(problem, dtype=dtype) + acc
        inv_diag = 1.0 / diagonal
        return lambda r: (inv_diag * r).astype(dtype)
    hier = hierarchy_for_problem(problem, accumulation=acc)
    return lambda r: mg_apply(hier, r).astype(dtype)


# -- the system under test ----------------------------------------------------


def _system(dims, seed, dtype, transient, warm):
    """A steady Newton correction (cold start ``x0=None``) or a
    backward-Euler step started from ``p^n`` as the stepper does; ``warm``
    perturbs the start on the interior rows."""
    problem = make_problem(*dims, seed=seed)
    mask = problem.dirichlet.mask
    p0 = problem.initial_pressure(dtype=dtype)
    rng = np.random.default_rng(seed + 100)
    kick = (0.01 * rng.standard_normal(problem.grid.shape)).astype(dtype)
    kick[mask] = 0.0
    if transient:
        acc = build_accumulation(problem, dt=0.5, dtype=dtype)
        operator = TransientOperator(problem, acc)
        b = acc * p0
        b[mask] += problem.dirichlet.values[mask].astype(dtype)
        return problem, operator, b, p0 + kick if warm else p0, acc
    r = compute_residual(problem.coefficients, problem.dirichlet, p0)
    b = (-r).astype(dtype)
    return problem, problem.operator(), b, kick if warm else None, None


def _assert_same(new: CGResult, old: CGResult):
    assert new.iterations == old.iterations
    assert new.converged == old.converged
    assert new.residual_history == old.residual_history
    assert new.x.dtype == old.x.dtype
    assert new.x.tobytes() == old.x.tobytes()


CASES = [
    pytest.param(dims, seed, id=f"{'x'.join(map(str, dims))}-s{seed}")
    for dims in ((5, 4, 3), (9, 7, 3), (12, 10, 4))
    for seed in (0, 3)
]


@pytest.mark.parametrize("transient", [False, True], ids=["steady", "transient"])
@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
@pytest.mark.parametrize("dtype", [np.float64, np.float32], ids=["f64", "f32"])
@pytest.mark.parametrize("dims,seed", CASES)
class TestOneLoopMatchesLegacy:
    def _tol(self, b, dtype):
        scale = float(np.vdot(b, b).real)
        return (1e-8 if dtype == np.float32 else 1e-20) * scale

    @pytest.mark.parametrize("name", ["jacobi", "mg"])
    def test_preconditioned(self, dims, seed, dtype, warm, transient, name):
        problem, operator, b, x0, acc = _system(dims, seed, dtype, transient, warm)
        tol = self._tol(b, dtype)
        old = _legacy_pcg(
            operator, _legacy_minv(problem, name, dtype, acc), b, x0,
            tol_rtr=tol, max_iters=400,
        )
        new = conjugate_gradient(
            operator, b, x0, tol_rtr=tol, max_iters=400,
            precondition=preconditioner_for(
                problem, name, accumulation=acc, dtype=dtype
            ),
        )
        _assert_same(new, old)

    @pytest.mark.parametrize("rel_tol", [None, 1e-5], ids=["abs", "rel"])
    def test_plain(self, dims, seed, dtype, warm, transient, rel_tol):
        _, operator, b, x0, _ = _system(dims, seed, dtype, transient, warm)
        tol = self._tol(b, dtype)
        old = _legacy_cg(operator, b, x0, tol_rtr=tol, rel_tol=rel_tol, max_iters=400)
        new = conjugate_gradient(
            operator, b, x0, tol_rtr=tol, rel_tol=rel_tol, max_iters=400
        )
        _assert_same(new, old)
