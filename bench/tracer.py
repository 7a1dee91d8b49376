"""Span tracing around the quarteig layers, installed from outside the package.

``Tracer.install`` replaces each traced function in the module namespace it
is looked up from (``quarteig.solver.deflate``, ``quarteig.cli.read_bundle``
and so on) with a timing wrapper, and ``uninstall`` puts the originals back.
Spans are kept in memory as (name, start, end, parent, problem) and written
out once at the end; self times are derived from them afterwards.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time
from collections import Counter

# (module, attribute, span name). Where a function is imported by name into
# another module, the importing module is the one patched.
TARGETS = (
    ("quarteig.cli", "read_bundle", "probio.read_bundle"),
    ("quarteig.cli", "write_report", "probio.write_report"),
    ("quarteig.cli", "solve_bundle", "solver.solve"),
    ("quarteig.cli", "build_report", "solver.build_report"),
    ("quarteig.scaling", "balance", "scaling.balance"),
    ("quarteig.scaling", "param_scale", "scaling.param_scale"),
    ("quarteig.scaling", "descale", "scaling.descale"),
    ("quarteig.solver", "analyze_ranks", "deflate.analyze_ranks"),
    ("quarteig.solver", "second_level", "deflate.second_level"),
    ("quarteig.deflate", "second_level", "deflate.second_level"),
    ("quarteig.solver", "deflate", "deflate.deflate"),
    ("quarteig.deflate", "rrqr", "deflate.rrqr"),
    ("quarteig.deflate", "urv", "deflate.urv"),
    ("quarteig.solver", "linearize", "pencil.linearize"),
    ("quarteig.gevp", "solve_gevp", "gevp.solve_gevp"),
    ("quarteig.eigvec", "build_context", "eigvec.build_context"),
    ("quarteig.eigvec", "tri_hess_reduce", "eigvec.tri_hess_reduce"),
    ("quarteig.eigvec", "shifted_hess_solve", "eigvec.shifted_hess_solve"),
    ("quarteig.eigvec", "shifted_hess_solve_many", "eigvec.shifted_hess_solve"),
    ("quarteig.eigvec", "recover_right_many", "eigvec.recover_right_many"),
    ("quarteig.eigvec", "recover_right_zero", "eigvec.recover_right_zero"),
    ("quarteig.eigvec", "recover_left", "eigvec.recover_left"),
    ("quarteig.eigvec", "recover_right_ls", "eigvec.recover_right_ls"),
    ("quarteig.eigvec", "lift_left", "eigvec.lift_left"),
    ("quarteig.eigvec", "nullspace_vectors", "eigvec.nullspace_vectors"),
    ("quarteig.diagnostics", "CoefficientNorms", "diagnostics.CoefficientNorms"),
    ("quarteig.diagnostics", "diagnostics_many", "diagnostics.diagnostics_many"),
    ("quarteig.diagnostics", "summarize", "diagnostics.summarize"),
)

LAYERS = ("cli", "probio", "solver", "scaling", "pencil", "deflate", "gevp",
          "eigvec", "diagnostics")


def _report_bytes(path, fmt):
    base = os.fspath(path)
    for ext in (".json", ".csv"):
        if base.endswith(ext):
            base = base[: -len(ext)]
            break
    exts = {"json": (".json",), "csv": (".csv",), "both": (".json", ".csv")}[fmt]
    return sum(os.path.getsize(base + ext) for ext in exts)


def _bundle_bytes(path):
    return sum(e.stat().st_size for e in os.scandir(path) if e.is_file())


class Tracer:
    """In-memory span recorder with per-call counters."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, problem id]
        self.counts = Counter()
        self.errors = Counter()
        self.problem = None
        self._stack = []
        self._saved = []

    # -- recording --------------------------------------------------------

    def span(self, name, fn, /, *args, **kwargs):
        """Call ``fn`` inside a span called ``name``."""
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        rec = [name, 0.0, 0.0, parent, self.problem]
        self.spans.append(rec)
        self._stack.append(idx)
        rec[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        except Exception as exc:
            self.errors[name.split(".", 1)[0]] += 1
            self.counts[f"{name}:{type(exc).__name__}"] += 1
            raise
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, name, fn):
        hook = getattr(self, "_on_" + name.replace(".", "_"), None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            out = self.span(name, fn, *args, **kwargs)
            if hook is not None:
                hook(out, *args, **kwargs)
            return out

        return wrapper

    # -- exact counts taken at the layer boundaries -----------------------

    def _on_gevp_solve_gevp(self, out, p, *args, **kwargs):
        self.counts["gevp.m3"] += p.size**3

    def _on_deflate_deflate(self, out, *args, **kwargs):
        self.counts["deflate.deflated"] += out.zeros_deflated + out.infs_deflated
        self.counts["deflate.full_size"] += out.full_size

    def _on_eigvec_recover_right_many(self, out, *args, **kwargs):
        self.counts["eigvec.recoveries"] += len(out)
        self.counts["eigvec.degenerate"] += sum(1 for _, how, _ in out if how == "degenerate")

    def _on_probio_read_bundle(self, out, path, *args, **kwargs):
        self.counts["probio.bytes_read"] += _bundle_bytes(path)

    def _on_probio_write_report(self, out, report, path, fmt="json"):
        self.counts["probio.bytes_written"] += _report_bytes(path, fmt)

    # -- patching ---------------------------------------------------------

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        for modname, attr, name in TARGETS:
            mod = importlib.import_module(modname)
            fn = getattr(mod, attr)
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, self._wrap(name, fn))

    def uninstall(self):
        while self._saved:
            mod, attr, fn = self._saved.pop()
            setattr(mod, attr, fn)

    # -- analysis ---------------------------------------------------------

    def self_times(self):
        """Total self time per span name: duration minus direct children."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        out = Counter()
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name] += (end - start) - child[i]
        return out

    def inclusive_times(self):
        out = Counter()
        for name, start, end, _, _ in self.spans:
            out[name] += end - start
        return out

    def exact_counts(self):
        """The counts that must repeat exactly for a given seed."""
        c = self.counts
        return (c["gevp.m3"], c["deflate.rrqr"], c["deflate.urv"],
                c["deflate.deflated"], c["deflate.full_size"], c["eigvec.lift_left"])

    def metrics(self, problems):
        """Per-layer metrics, each a mean per traced problem unless a ratio."""
        st = self.self_times()
        inc = self.inclusive_times()
        c = self.counts
        per = float(max(problems, 1))

        def frac(num, den):
            return num / den if den else 0.0

        m = {
            "gevp.qz_s": (st["gevp.solve_gevp"] / per, "s"),
            "gevp.m3_sum": (c["gevp.m3"] / per, "count"),
            "eigvec.tri_hess_s": (st["eigvec.tri_hess_reduce"] / per, "s"),
            "eigvec.context_s": (st["eigvec.build_context"] / per, "s"),
            "eigvec.hess_solve_s": (st["eigvec.shifted_hess_solve"] / per, "s"),
            "eigvec.recover_s": ((st["eigvec.recover_right_many"] + st["eigvec.recover_left"]
                                  + st["eigvec.recover_right_zero"]) / per, "s"),
            "eigvec.recover_ls_s": (st["eigvec.recover_right_ls"] / per, "s"),
            "eigvec.lift_left_s": (st["eigvec.lift_left"] / per, "s"),
            "eigvec.lift_left_calls": (c["eigvec.lift_left"] / per, "count"),
            "eigvec.lift_fail_frac": (frac(c["eigvec.lift_left:LiftError"],
                                           c["eigvec.lift_left"]), "ratio"),
            "eigvec.nullspace_s": (st["eigvec.nullspace_vectors"] / per, "s"),
            "eigvec.degenerate_frac": (frac(c["eigvec.degenerate"],
                                            c["eigvec.recoveries"]), "ratio"),
            "deflate.ranks_s": ((inc["deflate.analyze_ranks"] + inc["deflate.second_level"])
                                / per, "s"),
            "deflate.reduce_s": (st["deflate.deflate"] / per, "s"),
            "deflate.kernels_s": ((st["deflate.rrqr"] + st["deflate.urv"]) / per, "s"),
            "deflate.rrqr_calls": (c["deflate.rrqr"] / per, "count"),
            "deflate.urv_calls": (c["deflate.urv"] / per, "count"),
            "deflate.deflated_frac": (frac(c["deflate.deflated"], c["deflate.full_size"]),
                                      "ratio"),
            "pencil.linearize_s": (st["pencil.linearize"] / per, "s"),
            "scaling.balance_s": (st["scaling.balance"] / per, "s"),
            "scaling.param_scale_s": (st["scaling.param_scale"] / per, "s"),
            "scaling.descale_s": (st["scaling.descale"] / per, "s"),
            "diagnostics.norms_s": (st["diagnostics.CoefficientNorms"] / per, "s"),
            "diagnostics.eval_s": (st["diagnostics.diagnostics_many"] / per, "s"),
            "diagnostics.summarize_s": (st["diagnostics.summarize"] / per, "s"),
            "probio.read_s": (st["probio.read_bundle"] / per, "s"),
            "probio.write_s": (st["probio.write_report"] / per, "s"),
            "probio.bytes_read": (c["probio.bytes_read"] / per, "B"),
            "probio.bytes_written": (c["probio.bytes_written"] / per, "B"),
            "solver.report_s": (st["solver.build_report"] / per, "s"),
            "solver.self_s": (st["solver.solve"] / per, "s"),
            "cli.self_s": (st["cli.main"] / per, "s"),
        }
        for layer in LAYERS:
            m[f"{layer}.errors"] = (self.errors[layer] / per, "count")
        return m

    def dump(self, path, header):
        """Write the header and every span as JSON lines."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header) + "\n")
            for name, start, end, parent, problem in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "problem": problem}) + "\n")
