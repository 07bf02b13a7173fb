"""Span tracer that instruments pvga's layer boundaries from outside the package.

The tracer replaces module-boundary attributes with wrappers: the names one
``pvga`` module imported from another (``pvga.vga.rsvd``,
``pvga.hyper.run_vga``, ``pvga.linalg.lowrank_masked_dots``), the kernel
entry points the solver looks up on ``pvga._kernels``, the public entry
points the benchmark calls on the ``pvga`` package, and ``ForwardOperator`` /
``PriorSpec`` methods on the class.  Each call records a span (name, start,
end, parent) in memory; ``uninstall`` puts every original back.

Span names are ``<layer>.<function>``; the layers are the ``src/pvga``
modules (``_kernels`` appears as ``kernels``).  ``summarize`` turns the spans
of one operation into per-layer metrics: total time and call counts of
function families, self time per layer, and counts read from the values the
calls return.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time

from workloads import bound_drops

LAYERS = ("model", "linalg", "kernels", "elbo", "vga", "hyper", "validate")
ROOT = "op"


class Span:
    __slots__ = ("name", "parent", "start", "end", "attrs")

    def __init__(self, name: str, parent: int):
        self.name = name
        self.parent = parent
        self.start = 0.0
        self.end = 0.0
        self.attrs = None


class Tracer:
    """Records spans while installed; one tracer per traced run."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> Span:
        span = Span(name, self._stack[-1] if self._stack else -1)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = time.perf_counter()
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def root(self):
        """The root span ``op`` around one operation."""
        span = self._open(ROOT)
        try:
            yield span
        finally:
            self._close(span)

    def wrap(self, fn, name: str, note=None):
        """Wrapper recording one span per call; ``note(args, result)`` may
        return a dict of counts to attach to the span."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                span.attrs = {"error": type(exc).__name__}
                raise
            finally:
                self._close(span)
            if note is not None:
                span.attrs = note(args, out)
            return out

        return traced

    # -- installation ------------------------------------------------------

    def install(self, targets) -> None:
        for owner, attr, name, note in targets:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(original, name, note))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install(pvga_targets())
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def reset(self) -> None:
        self.spans = []
        self._stack = []


# ---------------------------------------------------------------------------
# what gets wrapped
# ---------------------------------------------------------------------------


def _note_pcg(args, res):
    return {"iterations": res.iterations, "unconverged": int(not res.converged)}


def _note_run_vga(args, out):
    report = out[1]
    return {"sweeps": len(report.elbo_trace) - 1, "unconverged": int(not report.converged),
            "bound_decreases": int(bound_drops(report.elbo_trace).size)}


def _note_newton(args, out):
    return {"halvings": out[1].halvings}


def _note_hierarchical(args, out):
    return {"em_sweeps": len(out[2].alpha_sequence) - 1}


def _note_mh(args, summary):
    return {"acceptance": summary.acceptance_rate}


def _note_rowquad_full(args, out):
    # computed from shapes: A @ C plus the row-wise dot; reads A and C once
    n, m = args[0].shape
    return {"flops": 2 * n * m * m + 2 * n * m, "bytes": 8 * (n * m + m * m + n)}


def _note_rowquad_masked(args, out):
    # computed from shapes: each of the n rows gathers two entries of A per
    # mask pair; rows, cols and vals are read once and the result written once
    n = args[0].shape[0]
    nnz = args[1].size
    return {"flops": 3 * n * nnz, "bytes": 8 * (2 * n * nnz + 3 * nnz + n)}


def pvga_targets():
    """(owner, attribute, span name, note) for every wrapped boundary."""
    mod = {k: importlib.import_module(f"pvga.{k}") for k in
           ("_kernels", "elbo", "hyper", "linalg", "model", "validate", "vga")}
    pkg = importlib.import_module("pvga")
    t = []
    for meth in ("matvec", "rmatvec", "matmat", "rmatmat", "dense"):
        t.append((mod["model"].ForwardOperator, meth, f"model.ForwardOperator.{meth}", None))
    for meth in ("cov_apply", "cov_matmat", "cov_entries", "cov_dense"):
        t.append((mod["model"].PriorSpec, meth, f"model.PriorSpec.{meth}", None))

    linalg_uses = {
        "vga": ("rsvd", "pcg_solve", "cholesky", "spd_inverse", "spd_rcond", "woodbury_cov"),
        "elbo": ("cholesky", "logdet", "spd_inverse", "spd_solve"),
        "validate": ("cholesky", "logdet", "spd_inverse"),
    }
    for user, names in linalg_uses.items():
        for fn in names:
            t.append((mod[user], fn, f"linalg.{fn}", _note_pcg if fn == "pcg_solve" else None))

    kernel_notes = {"rowwise_quad_full": _note_rowquad_full,
                    "rowwise_quad_masked": _note_rowquad_masked,
                    "lowrank_masked_dots": None, "mh_scan": None}
    for fn, note in kernel_notes.items():
        t.append((mod["_kernels"], fn, f"kernels.{fn}", note))
    t.append((mod["linalg"], "lowrank_masked_dots", "kernels.lowrank_masked_dots", None))

    for fn in ("elbo", "_bound_with_logdet", "rate_vector"):
        t.append((mod["vga"], fn, f"elbo.{fn}", None))
    t.append((mod["hyper"], "elbo", "elbo.elbo", None))

    t.append((pkg, "run_vga", "vga.run_vga", _note_run_vga))
    t.append((mod["hyper"], "run_vga", "vga.run_vga", _note_run_vga))
    t.append((mod["vga"], "newton_step_mean", "vga.newton_step_mean", _note_newton))
    t.append((mod["vga"], "fixed_point_step_cov", "vga.fixed_point_step_cov", None))

    t.append((pkg, "run_hierarchical", "hyper.run_hierarchical", _note_hierarchical))
    for fn in ("phi_psi", "joint_lower_bound", "update_alpha"):
        t.append((mod["hyper"], fn, f"hyper.{fn}", None))

    for fn in ("laplace_approximation", "hpd_intervals", "compare_gaussians"):
        t.append((pkg, fn, f"validate.{fn}", None))
    t.append((pkg, "mh_independence_sampler", "validate.mh_independence_sampler", _note_mh))
    for fn in ("map_estimate", "_log_joint_rows", "hpd_intervals"):
        t.append((mod["validate"], fn, f"validate.{fn}", None))
    return t


# ---------------------------------------------------------------------------
# spans -> metrics
# ---------------------------------------------------------------------------

# family -> (span names, required parent span name or None).  A family's time
# and call count cover its outermost spans only, so a blur2d ``matmat`` that
# loops over ``matvec`` counts once.
FAMILIES = {
    "model.operator_dense": (("model.ForwardOperator.dense",), None),
    "model.operator_apply": (tuple(f"model.ForwardOperator.{m}" for m in
                                   ("matvec", "rmatvec", "matmat", "rmatmat")), None),
    "model.prior_cov_apply": (("model.PriorSpec.cov_apply",), None),
    "model.prior_cov_matmat": (("model.PriorSpec.cov_matmat",), None),
    "linalg.rsvd": (("linalg.rsvd",), None),
    "linalg.woodbury": (("linalg.woodbury_cov",), None),
    "linalg.pcg": (("linalg.pcg_solve",), None),
    "linalg.cholesky": (("linalg.cholesky",), None),
    "linalg.spd_inverse": (("linalg.spd_inverse",), None),
    "linalg.spd_rcond": (("linalg.spd_rcond",), None),
    "kernels.rowquad_full": (("kernels.rowwise_quad_full",), None),
    "kernels.rowquad_masked": (("kernels.rowwise_quad_masked",), None),
    "kernels.masked_dots": (("kernels.lowrank_masked_dots",), None),
    "kernels.mh_scan": (("kernels.mh_scan",), None),
    "elbo.bound": (("elbo.elbo", "elbo._bound_with_logdet"), None),
    "vga.run": (("vga.run_vga",), None),
    "vga.newton": (("vga.newton_step_mean",), None),
    "vga.fixed_point": (("vga.fixed_point_step_cov",), None),
    "hyper.run": (("hyper.run_hierarchical",), None),
    "hyper.estep": (("vga.run_vga",), "hyper.run_hierarchical"),
    "hyper.mstep": (("hyper.phi_psi", "hyper.joint_lower_bound", "hyper.update_alpha"), None),
    "validate.map": (("validate.map_estimate",), None),
    "validate.laplace": (("validate.laplace_approximation",), None),
    "validate.mh": (("validate.mh_independence_sampler",), None),
    "validate.logjoint": (("validate._log_joint_rows",), None),
    "validate.hpd": (("validate.hpd_intervals",), None),
    "validate.compare": (("validate.compare_gaussians",), None),
}

# metric -> (unit, family, field); field is "s", "calls" or a summed span count
LAYER_METRICS = {
    "model.operator_dense_s": ("s", "model.operator_dense", "s"),
    "model.operator_apply_calls": ("count", "model.operator_apply", "calls"),
    "model.operator_apply_s": ("s", "model.operator_apply", "s"),
    "model.prior_cov_apply_calls": ("count", "model.prior_cov_apply", "calls"),
    "model.prior_cov_apply_s": ("s", "model.prior_cov_apply", "s"),
    "model.prior_cov_matmat_s": ("s", "model.prior_cov_matmat", "s"),
    "linalg.rsvd_s": ("s", "linalg.rsvd", "s"),
    "linalg.woodbury_s": ("s", "linalg.woodbury", "s"),
    "linalg.pcg_calls": ("count", "linalg.pcg", "calls"),
    "linalg.pcg_iters": ("count", "linalg.pcg", "iterations"),
    "linalg.pcg_unconverged": ("count", "linalg.pcg", "unconverged"),
    "linalg.pcg_s": ("s", "linalg.pcg", "s"),
    "linalg.cholesky_s": ("s", "linalg.cholesky", "s"),
    "linalg.spd_inverse_s": ("s", "linalg.spd_inverse", "s"),
    "linalg.spd_rcond_s": ("s", "linalg.spd_rcond", "s"),
    "kernels.rowquad_full_calls": ("count", "kernels.rowquad_full", "calls"),
    "kernels.rowquad_full_s": ("s", "kernels.rowquad_full", "s"),
    "kernels.rowquad_full_flops": ("flops_computed", "kernels.rowquad_full", "flops"),
    "kernels.rowquad_full_bytes": ("bytes_computed", "kernels.rowquad_full", "bytes"),
    "kernels.rowquad_masked_calls": ("count", "kernels.rowquad_masked", "calls"),
    "kernels.rowquad_masked_s": ("s", "kernels.rowquad_masked", "s"),
    "kernels.rowquad_masked_flops": ("flops_computed", "kernels.rowquad_masked", "flops"),
    "kernels.rowquad_masked_bytes": ("bytes_computed", "kernels.rowquad_masked", "bytes"),
    "kernels.masked_dots_s": ("s", "kernels.masked_dots", "s"),
    "kernels.mh_scan_s": ("s", "kernels.mh_scan", "s"),
    "elbo.bound_calls": ("count", "elbo.bound", "calls"),
    "elbo.bound_s": ("s", "elbo.bound", "s"),
    "vga.run_calls": ("count", "vga.run", "calls"),
    "vga.run_s": ("s", "vga.run", "s"),
    "vga.outer_sweeps": ("count", "vga.run", "sweeps"),
    "vga.unconverged": ("count", "vga.run", "unconverged"),
    "vga.bound_decreases": ("count", "vga.run", "bound_decreases"),
    "vga.newton_steps": ("count", "vga.newton", "calls"),
    "vga.newton_halvings": ("count", "vga.newton", "halvings"),
    "vga.newton_s": ("s", "vga.newton", "s"),
    "vga.fixed_point_steps": ("count", "vga.fixed_point", "calls"),
    "vga.fixed_point_s": ("s", "vga.fixed_point", "s"),
    "hyper.em_sweeps": ("count", "hyper.run", "em_sweeps"),
    "hyper.estep_s": ("s", "hyper.estep", "s"),
    "hyper.estep_unconverged": ("count", "hyper.estep", "unconverged"),
    "hyper.mstep_s": ("s", "hyper.mstep", "s"),
    "validate.map_s": ("s", "validate.map", "s"),
    "validate.laplace_s": ("s", "validate.laplace", "s"),
    "validate.mh_s": ("s", "validate.mh", "s"),
    "validate.logjoint_s": ("s", "validate.logjoint", "s"),
    "validate.hpd_s": ("s", "validate.hpd", "s"),
    "validate.compare_s": ("s", "validate.compare", "s"),
}


def _families_of():
    by_name: dict[str, list[tuple[str, str | None]]] = {}
    for fam, (names, parent) in FAMILIES.items():
        for name in names:
            by_name.setdefault(name, []).append((fam, parent))
    return by_name


def summarize(spans: list[Span], root: Span) -> dict[str, float]:
    """Per-layer metrics of the spans under ``root`` (one operation).

    Returns every LAYER_METRICS entry plus ``<layer>.self_s`` for each layer
    and ``root_self_s``; the self times add up to the root span's duration.
    """
    by_name = _families_of()
    totals = {fam: {"calls": 0, "s": 0.0} for fam in FAMILIES}
    child = [0.0] * len(spans)
    self_s = dict.fromkeys(LAYERS, 0.0)
    open_fams: dict[str, int] = {}
    stack: list[tuple[int, list[str]]] = []  # (span index, families it opened)
    for i, span in enumerate(spans):
        while stack and stack[-1][0] != span.parent:
            for fam in stack.pop()[1]:
                open_fams[fam] -= 1
        dur = span.end - span.start
        if span.parent >= 0:
            child[span.parent] += dur
        opened = []
        parent_name = spans[span.parent].name if span.parent >= 0 else None
        for fam, need_parent in by_name.get(span.name, ()):
            if need_parent is not None and parent_name != need_parent:
                continue
            if not open_fams.get(fam):
                tot = totals[fam]
                tot["calls"] += 1
                tot["s"] += dur
                for key, val in (span.attrs or {}).items():
                    if key != "error":
                        tot[key] = tot.get(key, 0) + val
            open_fams[fam] = open_fams.get(fam, 0) + 1
            opened.append(fam)
        stack.append((i, opened))
    for i, span in enumerate(spans):
        layer = span.name.split(".", 1)[0]
        if layer in self_s:
            self_s[layer] += (span.end - span.start) - child[i]

    out = {}
    for metric, (_unit, fam, field) in LAYER_METRICS.items():
        out[metric] = totals[fam].get(field, 0)
    mh = totals["validate.mh"]
    out["validate.mh_acceptance"] = mh.get("acceptance", 0.0) / mh["calls"] if mh["calls"] else 0.0
    for layer in LAYERS:
        out[f"{layer}.self_s"] = self_s[layer]
    root_index = spans.index(root)
    out["root_self_s"] = (root.end - root.start) - child[root_index]
    return out


def spans_table(spans: list[Span]) -> dict:
    """Compact column form of the spans for the run's result file."""
    names = sorted({s.name for s in spans})
    index = {n: k for k, n in enumerate(names)}
    t0 = spans[0].start if spans else 0.0
    return {
        "names": names,
        "name": [index[s.name] for s in spans],
        "parent": [s.parent for s in spans],
        "start": [round(s.start - t0, 7) for s in spans],
        "end": [round(s.end - t0, 7) for s in spans],
    }
