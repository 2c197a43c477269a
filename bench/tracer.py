"""Layer tracing from outside the package.

`Tracer.install` wraps opcalc's public functions and a few methods, and binds
each wrapper into every opcalc module that holds the original, so names bound
by `from .x import y` are traced too.  A span records its name, start, end
and the enclosing span; self time is a span's duration minus the time of the
spans inside it.  Fine-grained spans are only summed; op-level and
harness-level spans are kept whole and written out with the result.
"""

from __future__ import annotations

import hashlib
import math
import os
import sys
from functools import wraps
from time import perf_counter

import numpy as np

KINDS = ("verify-core", "moi", "chain-rule", "besov-equivalence",
         "nonlinear-estimate", "meyer", "allen-cahn")

# Layers recorded while the benchmark sets up (config generation, capture).
SETUP_LAYERS = ("config.parse_config", "baselines.load", "baselines.capture")

# Every per-layer metric the traced run reports, with its unit.
PER_LAYER_METRICS = (
    [("linalg.svd.calls", "count"), ("linalg.svd.matrices", "count"),
     ("linalg.svd.work_n3", "n3"), ("linalg.svd.self_s", "s"),
     ("linalg.eigh.calls", "count"), ("linalg.eigh.matrices", "count"),
     ("linalg.eigh.batch_mean", "matrices/call"), ("linalg.eigh.work_n3", "n3"),
     ("linalg.eigh.self_s", "s"),
     ("linalg.func_calc.calls", "count"), ("linalg.func_calc.self_s", "s"),
     ("linalg.hermitian_checks", "count"),
     ("torus.to_matrix_batch.calls", "count"), ("torus.to_matrix_batch.matrices", "count"),
     ("torus.to_matrix_batch.self_s", "s"),
     ("torus.from_matrix.calls", "count"), ("torus.from_matrix.self_s", "s"),
     ("torus.lp_norm_batch.calls", "count"), ("torus.lp_norm_batch.self_s", "s"),
     ("torus.difference_stack.calls", "count"), ("torus.difference_stack.elements", "count"),
     ("torus.difference_stack.self_s", "s"),
     ("torus.multiply.calls", "count"), ("torus.multiply.self_s", "s"),
     ("symbols.radial_profile.calls", "count"), ("symbols.radial_profile.self_s", "s"),
     ("symbols.divided_diff_tensor.calls", "count"), ("symbols.divided_diff_tensor.self_s", "s"),
     ("expr.parse_symbol.calls", "count"), ("expr.parse_symbol.self_s", "s"),
     ("moi.moi_schur.calls", "count"), ("moi.moi_schur.self_s", "s"),
     ("moi.moi_binned.calls", "count"), ("moi.moi_binned.self_s", "s"),
     ("chain.chain_rule_residual.calls", "count"), ("chain.chain_rule_residual.self_s", "s"),
     ("chain.expand.self_s", "s"),
     ("besov.block_norms.calls", "count"), ("besov.block_norms.self_s", "s"),
     ("besov.besov_difference_norm.self_s", "s"), ("besov.besov_integral_norm.self_s", "s"),
     ("besov.harness.self_s", "s"), ("besov.meyer_residual.self_s", "s"),
     ("besov.stack_repeat_frac", "fraction"),
     ("allen_cahn.picard_solve.calls", "count"), ("allen_cahn.picard_solve.failed", "count"),
     ("allen_cahn.picard_solve.self_s", "s"), ("allen_cahn.picard.sweeps", "count"),
     ("allen_cahn.apply_F.calls", "count"), ("allen_cahn.apply_F.self_s", "s")]
    + [(f"experiments.{kind}.busy_s", "s") for kind in KINDS]
    + [("cli.write.self_s", "s"), ("cli.write.bytes", "bytes"),
       ("config.parse_config.busy_s", "s"), ("baselines.load.busy_s", "s"),
       ("baselines.capture.busy_s", "s"),
       ("trace.overhead_frac", "fraction"), ("trace.uncovered_frac", "fraction")])

# Spans kept whole (the rest are summed per name).
_KEPT = ("experiments.", "baselines.", "config.", "cli.", "allen_cahn.picard_solve",
         "besov.besov_", "besov.harness", "besov.meyer_residual", "chain.chain_rule_residual")


def _matrices(shape) -> int:
    """Number of matrices in an array of this shape (a stack or one matrix)."""
    return math.prod(shape[:-2])


class Tracer:
    def __init__(self):
        self.stats = {}          # span name -> [calls, total_s, self_s]
        self.counts = {}         # counter name -> value
        self.spans = []          # kept spans: (id, parent id, op, name, start, end)
        self.op = None           # identifier shared by the spans of one op
        self.top_s = 0.0         # time inside outermost spans
        self._stack = []         # open spans: [name, child_s, kept id]
        self._next_id = 0
        self._seen = set()       # (algebra, p, stack digest) sent to lp_norm_batch
        self._patches = []

    # -- recording ---------------------------------------------------------

    def add(self, name, value=1):
        self.counts[name] = self.counts.get(name, 0) + value

    def _hooked(self, fn):
        """Run a counting hook outside every span's self time."""
        t0 = perf_counter()
        fn()
        spent = perf_counter() - t0
        if self._stack:
            self._stack[-1][1] += spent

    def wrap(self, name, fn, hook=None):
        """Span around fn; hook(args, kwargs, result, error) counts work."""
        tracer = self
        kept = callable(name) or name.startswith(_KEPT)

        @wraps(fn)
        def traced(*args, **kwargs):
            span = name(args) if callable(name) else name
            stack = tracer._stack
            span_id = None
            if kept:
                tracer._next_id += 1
                span_id = tracer._next_id
            parent = stack[-1][2] if stack else None
            frame = [span, 0.0, span_id if span_id is not None else parent]
            stack.append(frame)
            result, error = None, None
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                t1 = perf_counter()
                stack.pop()
                dt = t1 - t0
                st = tracer.stats.setdefault(span, [0, 0.0, 0.0])
                st[0] += 1
                st[1] += dt
                st[2] += dt - frame[1]
                if stack:
                    stack[-1][1] += dt
                else:
                    tracer.top_s += dt
                if span_id is not None:
                    tracer.spans.append((span_id, parent, tracer.op, span, t0, t1))
                if hook is not None:
                    tracer._hooked(lambda: hook(args, kwargs, result, error))
        return traced

    # -- installation ------------------------------------------------------

    def _rebind(self, original, replacement):
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "opcalc" or mod_name.startswith("opcalc.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, replacement)

    def _patch(self, owner, attr, replacement):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self, layers=None):
        """Wrap every traced layer, or only the span names in `layers`."""
        import opcalc.allen_cahn as ac
        import opcalc.baselines as bl
        import opcalc.besov as bz
        import opcalc.chain as ch
        import opcalc.cli as cli
        import opcalc.config as cfg
        import opcalc.experiments as ex
        import opcalc.expr as expr
        import opcalc.linalg as la
        import opcalc.moi as moi
        import opcalc.symbols as sym
        import opcalc.torus as tor

        def want(name):
            return layers is None or name in layers

        def svd(args, kwargs, result, error):
            shape = np.shape(args[0])
            self.add("linalg.svd.matrices", _matrices(shape))
            self.add("linalg.svd.work_n3", _matrices(shape) * shape[-1] ** 3)

        def eigh(args, kwargs, result, error):
            h = args[0]
            shape = np.shape(h.data if isinstance(h, la.HermitianOperator) else h)
            self.add("linalg.eigh.matrices", _matrices(shape))
            self.add("linalg.eigh.work_n3", _matrices(shape) * shape[-1] ** 3)

        def realize(args, kwargs, result, error):
            self.add("torus.to_matrix_batch.matrices", len(args[1]))

        def differences(args, kwargs, result, error):
            if result is not None:
                self.add("torus.difference_stack.elements", len(result))

        def norms(args, kwargs, result, error):
            alg, stack, p = args[:3]
            pv = p.p if hasattr(p, "p") else float(p)
            stack = stack if stack.flags.c_contiguous else stack.copy()
            key = (alg.N, alg.d, alg.theta_num, alg.backend, pv, stack.shape,
                   hashlib.blake2b(stack.data, digest_size=16).digest())
            self.add("besov.stack_matrices", len(stack))
            if key in self._seen:
                self.add("besov.stack_repeats", len(stack))
            else:
                self._seen.add(key)

        def picard(args, kwargs, result, error):
            if error is not None:
                self.add("allen_cahn.picard_solve.failed")
            else:
                self.add("allen_cahn.picard.sweeps", result[1]["sweeps"])

        def written(args, kwargs, result, error):
            # every op writes into a fresh directory; write_csv skips empty tables
            if error is None and os.path.exists(args[0]):
                self.add("cli.write.bytes", os.path.getsize(args[0]))

        functions = [
            ("linalg.svd", la, "schatten_norm", svd),
            ("linalg.svd", la, "schatten_norm_batch", svd),
            ("linalg.eigh", la, "eig_hermitian", eigh),
            ("linalg.func_calc", la, "func_calc", None),
            ("torus.to_matrix_batch", tor, "to_matrix_batch", realize),
            ("torus.from_matrix", tor, "from_matrix", None),
            ("torus.lp_norm_batch", tor, "lp_norm_batch", norms),
            ("torus.difference_stack", tor, "_difference_stack", differences),
            ("torus.multiply", tor, "multiply", None),
            ("symbols.divided_diff_tensor", sym, "divided_diff_tensor", None),
            ("expr.parse_symbol", expr, "parse_symbol", None),
            ("moi.moi_schur", moi, "moi_schur", None),
            ("moi.moi_binned", moi, "moi_binned", None),
            ("chain.chain_rule_residual", ch, "chain_rule_residual", None),
            ("chain.expand", ch, "expand", None),
            ("besov.block_norms", bz, "block_norms", None),
            ("besov.besov_difference_norm", bz, "besov_difference_norm", None),
            ("besov.besov_integral_norm", bz, "besov_integral_norm", None),
            ("besov.harness", bz, "heat_smoothing_check", None),
            ("besov.harness", bz, "block_difference_check", None),
            ("besov.harness", bz, "apply_paraproduct", None),
            ("besov.meyer_residual", bz, "meyer_residual", None),
            ("allen_cahn.picard_solve", ac, "picard_solve", picard),
            ("cli.write", cli, "write_summary", written),
            ("cli.write", cli, "write_csv", written),
            ("config.parse_config", cfg, "parse_config", None),
        ]
        for name, mod, attr, hook in functions:
            if want(name):
                original = getattr(mod, attr)
                self._rebind(original, self.wrap(name, original, hook))
        if want("experiments"):
            original = ex.run_experiment
            self._rebind(original, self.wrap(lambda args: f"experiments.{args[0].kind}", original))
        methods = [
            ("allen_cahn.apply_F", ac.ACProblem, "apply_F"),
            ("symbols.radial_profile", sym.LPFilterFamily, "radial_profile"),
        ]
        for name, cls, attr in methods:
            if want(name):
                self._patch(cls, attr, self.wrap(name, cls.__dict__[attr]))
        if want("linalg.hermitian_checks"):
            check = la.HermitianOperator.__post_init__

            @wraps(check)
            def counted(op):
                self.add("linalg.hermitian_checks")
                check(op)
            self._patch(la.HermitianOperator, "__post_init__", counted)
        if want("baselines.load"):
            load = bl.BaselineStore.__dict__["load"].__func__
            self._patch(bl.BaselineStore, "load", classmethod(self.wrap("baselines.load", load)))
        if want("baselines.capture"):
            for kind, capture in list(ex.CAPTURES.items()):
                self._patches.append((ex.CAPTURES, kind, capture))
                ex.CAPTURES[kind] = self.wrap("baselines.capture", capture)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._patches = []

    # -- results -----------------------------------------------------------

    def _stat(self, name, field):
        st = self.stats.get(name, [0, 0.0, 0.0])
        return st[{"calls": 0, "busy_s": 1, "self_s": 2}[field]]

    def metrics(self, traced_s: float, untraced_s: float) -> dict:
        """Every PER_LAYER_METRICS value, for a traced pass of traced_s seconds."""
        values = {}
        for metric, unit in PER_LAYER_METRICS:
            layer, _, field = metric.rpartition(".")
            if field in ("calls", "self_s", "busy_s"):
                value = self._stat(layer, field)
            else:
                value = self.counts.get(metric, 0)
            values[metric] = value
        eigh_calls = self._stat("linalg.eigh", "calls")
        values["linalg.eigh.batch_mean"] = (self.counts.get("linalg.eigh.matrices", 0) / eigh_calls
                                            if eigh_calls else 0.0)
        sent = self.counts.get("besov.stack_matrices", 0)
        values["besov.stack_repeat_frac"] = self.counts.get("besov.stack_repeats", 0) / sent if sent else 0.0
        values["trace.overhead_frac"] = traced_s / untraced_s - 1.0
        values["trace.uncovered_frac"] = max(0.0, 1.0 - self.top_s / traced_s)
        return {metric: {"value": values[metric], "unit": unit} for metric, unit in PER_LAYER_METRICS}
