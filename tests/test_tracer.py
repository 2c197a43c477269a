"""The benchmark's layer tracer (``bench/tracer.py``) against the package.

The tracer wraps opcalc's functions and methods by name, so a deletion or
rename in the package breaks it; these tests read ``bench/`` and leave it as
it is.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np

import opcalc.allen_cahn as ac
import opcalc.baselines as bl
import opcalc.besov as bz
import opcalc.chain  # noqa: F401  (imported for its module dict)
import opcalc.cli  # noqa: F401
import opcalc.config  # noqa: F401
import opcalc.experiments as ex
import opcalc.expr  # noqa: F401
import opcalc.linalg as la
import opcalc.moi  # noqa: F401
import opcalc.symbols as sym
import opcalc.torus as tor
from opcalc.seeding import rng_for

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("opcalc_bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _snapshot():
    """Every binding the tracer may patch: the opcalc module dicts, the dicts
    of the classes whose methods it wraps, and the capture registry."""
    modules = {name: dict(vars(mod)) for name, mod in sys.modules.items()
               if mod is not None and (name == "opcalc" or name.startswith("opcalc."))}
    classes = {cls: dict(cls.__dict__) for cls in (ac.ACProblem, sym.LPFilterFamily,
                                                    la.HermitianOperator, bl.BaselineStore)}
    return modules, classes, dict(ex.CAPTURES)


def _changed(snapshot):
    modules, classes, captures = snapshot
    out = [(name, attr) for name, before in modules.items()
           for attr, value in vars(sys.modules[name]).items()
           if attr not in before or before[attr] is not value]
    out += [(name, attr) for name, before in modules.items()
            for attr in before if attr not in vars(sys.modules[name])]
    out += [(cls.__name__, attr) for cls, before in classes.items()
            for attr in set(before) | set(cls.__dict__)
            if before.get(attr) is not cls.__dict__.get(attr)]
    out += [("CAPTURES", kind) for kind in set(captures) | set(ex.CAPTURES)
            if captures.get(kind) is not ex.CAPTURES.get(kind)]
    return sorted(out)


def test_tracer_install_then_uninstall_restores_every_binding():
    before = _snapshot()
    tracer = _load_tracer().Tracer()
    try:
        tracer.install()
        patched = _changed(before)
        for binding in (("opcalc.besov", "besov_difference_norm"), ("opcalc.torus", "lp_norm_batch"),
                        ("opcalc.linalg", "eig_hermitian"), ("ACProblem", "apply_F"),
                        ("HermitianOperator", "__post_init__"), ("BaselineStore", "load")):
            assert binding in patched
        assert len(patched) == len(tracer._patches)
        # a traced norm runs the tracer's hooks, which read TorusAlgebra.backend
        # and count the stacks and the realized matrices
        alg = tor.TorusAlgebra(d=2, N=8, theta_num=1)
        stack = np.stack([tor.random_element(alg, rng_for(i, "tracer"), band=2).coeffs for i in range(2)])
        tor.lp_norm_batch(alg, stack, 1)
        assert tracer.stats["torus.lp_norm_batch"][0] == 1
        assert tracer.counts["besov.stack_matrices"] == 2
        assert tracer.counts["torus.to_matrix_batch.matrices"] == 2
    finally:
        tracer.uninstall()
    assert _changed(before) == []
    assert bz.besov_difference_norm.__module__ == "opcalc.besov"
