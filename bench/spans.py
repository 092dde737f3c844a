"""Tracing from outside the program: wrappers on the module attributes that
callers resolve, spans kept in memory, per-layer metrics derived from them.

A span is (name, start, end, parent index, op key); its layer is the part
of the name before the dot.  A layer's self time is the time of its spans
minus the time their child spans cover.  Hot predicates are counted only.
Work a wrapper does after its call (sizing SNF matrices) is recorded as a
``trace.hook`` child span, so it is not charged to the caller's layer.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from time import perf_counter

from steincalc import cli, document, intlinalg, invariants, planarity, relators, surfaces, words
import steincalc

MODULES = (steincalc, cli, document, relators, words, surfaces, intlinalg, invariants, planarity)

SPANNED = {
    "cli.main": cli.main,
    "document.parse": document.parse,
    "document.serialize": document.serialize,
    "document.tau_boundary_document": document.tau_boundary_document,
    "document.lantern_document": document.lantern_document,
    "document.chain_document": document.chain_document,
    "document.non_standard_document": document.non_standard_document,
    "relators.lantern": relators.lantern,
    "relators.chain": relators.chain,
    "relators.braid_relator": relators.braid_relator,
    "relators.non_standard_relator": relators.non_standard_relator,
    "words.contains": words.contains,
    "words.substitute": words.substitute,
    "words.verify_relator": words.verify_relator,
    "intlinalg.smith_normal_form": intlinalg.smith_normal_form,
    "intlinalg.kernel_basis": intlinalg.kernel_basis,
    "intlinalg.symmetric_signature": intlinalg.symmetric_signature,
    "invariants.filling_invariants": invariants.filling_invariants,
    "invariants.planar_intersection_form": invariants.planar_intersection_form,
    "invariants.h1_boundary": invariants.h1_boundary,
    "invariants.chern_pd": invariants.chern_pd,
    "planarity.detect_relator": planarity.detect_relator,
    "planarity.detect_bounding": planarity.detect_bounding,
}
COUNTED = {
    "surfaces.curves_commute": surfaces.curves_commute,
    "surfaces.twist_action": surfaces.twist_action,
}
QUOTIENT = "intlinalg.quotient"  # AbelianQuotient.from_relations, a classmethod

RELATOR_BUILDERS = [name for name in SPANNED if name.startswith("relators.")]
SELF_LAYERS = ("document", "words", "intlinalg", "invariants", "planarity")

# per-layer metric -> unit; times and counts are per pass over the op list
UNITS = {
    "intlinalg.signature_s": "s",
    "intlinalg.snf_s": "s",
    "intlinalg.kernel_s": "s",
    "intlinalg.quotient_s": "s",
    "intlinalg.snf_calls": "count",
    "intlinalg.snf_cells": "count",
    "intlinalg.max_coeff_bits": "bits",
    "invariants.planar_form_s": "s",
    "invariants.h1_s": "s",
    "invariants.chern_s": "s",
    "invariants.filling_s": "s",
    "surfaces.twist_action_calls": "count",
    "surfaces.curves_commute_calls": "count",
    "words.contains_s": "s",
    "words.substitute_s": "s",
    "words.contains_calls": "count",
    "words.substitute_calls": "count",
    "words.hit_ratio": "ratio",
    "words.witness_swaps": "count",
    "words.verify_relator_s": "s",
    "planarity.detect_relator_s": "s",
    "planarity.detect_bounding_s": "s",
    "planarity.nonplanar_certs": "count",
    "document.parse_s": "s",
    "document.parse_calls": "count",
    "document.serialize_s": "s",
    "document.input_bytes": "bytes",
    "relators.build_s": "s",
    "relators.build_calls": "count",
    "cli.main_s": "s",
    **{f"{layer}.self_s": "s" for layer in SELF_LAYERS},
    "op.total_s": "s",
    "trace.overhead_ratio": "ratio",
    "failed_ratio": "ratio",
}
TIMED = {
    "intlinalg.signature_s": "intlinalg.symmetric_signature",
    "intlinalg.snf_s": "intlinalg.smith_normal_form",
    "intlinalg.kernel_s": "intlinalg.kernel_basis",
    "intlinalg.quotient_s": QUOTIENT,
    "invariants.planar_form_s": "invariants.planar_intersection_form",
    "invariants.h1_s": "invariants.h1_boundary",
    "invariants.chern_s": "invariants.chern_pd",
    "invariants.filling_s": "invariants.filling_invariants",
    "words.contains_s": "words.contains",
    "words.substitute_s": "words.substitute",
    "words.verify_relator_s": "words.verify_relator",
    "planarity.detect_relator_s": "planarity.detect_relator",
    "planarity.detect_bounding_s": "planarity.detect_bounding",
    "document.parse_s": "document.parse",
    "document.serialize_s": "document.serialize",
}
CALLS = {
    "intlinalg.snf_calls": "intlinalg.smith_normal_form",
    "surfaces.twist_action_calls": "surfaces.twist_action",
    "surfaces.curves_commute_calls": "surfaces.curves_commute",
    "words.contains_calls": "words.contains",
    "words.substitute_calls": "words.substitute",
    "document.parse_calls": "document.parse",
}


def _bits(rows):
    return max((abs(x).bit_length() for row in rows for x in row), default=0)


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.op_key = None
        self.calls = Counter()
        self.counts = Counter()
        self.max_coeff_bits = 0
        self._restore = []

    # -- recording ---------------------------------------------------------

    def call(self, name, fn, args, kwargs):
        """Run fn inside a span; return (result, end time)."""
        self.calls[name] += 1
        parent = self.stack[-1] if self.stack else None
        idx = len(self.spans)
        self.spans.append(None)
        self.stack.append(idx)
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self.stack.pop()
            self.spans[idx] = (name, start, end, parent, self.op_key)
        return result, end

    def run_op(self, key, fn):
        self.op_key = key
        try:
            return self.call("op", fn, (), {})[0]
        finally:
            self.op_key = None

    def _hook(self, after, result, args, end):
        after(result, args)
        self.spans.append(("trace.hook", end, perf_counter(), self.stack[-1] if self.stack else None, self.op_key))

    def _spanned(self, name, fn):
        after = self._after(name)

        def wrapper(*args, **kwargs):
            result, end = self.call(name, fn, args, kwargs)
            if after is not None:
                self._hook(after, result, args, end)
            return result

        return wrapper

    def _counted(self, name, fn):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _after(self, name):
        counts = self.counts
        if name == "intlinalg.smith_normal_form":
            def after(snf, args):
                rows, cols = len(snf.row_ops), len(snf.col_ops)
                counts["snf_cells"] += rows * cols
                bits = max(_bits(snf.row_ops), _bits(snf.col_ops), _bits([snf.diag]))
                self.max_coeff_bits = max(self.max_coeff_bits, bits)
            return after
        if name == "document.parse":
            def after(doc, args):
                counts["input_bytes"] += len(args[0].encode("utf-8"))
            return after
        if name == "words.contains":
            def after(witness, args):
                if witness is not None:
                    counts["hits"] += 1
                    counts["witness_swaps"] += len(witness.swaps)
            return after
        if name == "words.substitute":
            def after(result, args):
                counts["hits"] += 1
                counts["witness_swaps"] += len(result[1].swaps)
            return after
        if name == "planarity.detect_relator":
            def after(certificates, args):
                counts["nonplanar_certs"] += sum(c.verdict == planarity.NON_PLANAR for c in certificates)
            return after
        if name == "planarity.detect_bounding":
            def after(certificate, args):
                counts["nonplanar_certs"] += certificate.verdict == planarity.NON_PLANAR
            return after
        return None

    # -- installation ------------------------------------------------------

    def install(self):
        """Replace every module attribute bound to a traced function."""
        wrappers = {}
        for name, fn in SPANNED.items():
            wrappers[id(fn)] = (fn, self._spanned(name, fn))
        for name, fn in COUNTED.items():
            wrappers[id(fn)] = (fn, self._counted(name, fn))
        for module in MODULES:
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, hit[1])
        quotient = intlinalg.AbelianQuotient
        original = quotient.__dict__["from_relations"]
        self._restore.append((quotient, "from_relations", original))
        quotient.from_relations = classmethod(self._spanned(QUOTIENT, original.__func__))
        if cli.main is SPANNED["cli.main"]:
            raise RuntimeError("cli.main was not wrapped")

    def uninstall(self):
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    # -- results -----------------------------------------------------------

    def metrics(self, passes):
        """Per-layer metrics, each per pass over the op list."""
        child_time = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        total = Counter()
        self_time = Counter()
        for idx, (name, start, end, _, _) in enumerate(self.spans):
            total[name] += end - start
            self_time[name.split(".")[0]] += end - start - child_time[idx]
        per = 1.0 / passes
        out = {metric: total[span] * per for metric, span in TIMED.items()}
        out.update({metric: self.calls[span] * per for metric, span in CALLS.items()})
        out["intlinalg.snf_cells"] = self.counts["snf_cells"] * per
        out["intlinalg.max_coeff_bits"] = self.max_coeff_bits
        searches = self.calls["words.contains"] + self.calls["words.substitute"]
        out["words.hit_ratio"] = self.counts["hits"] / searches if searches else 0.0
        out["words.witness_swaps"] = self.counts["witness_swaps"] * per
        out["planarity.nonplanar_certs"] = self.counts["nonplanar_certs"] * per
        out["document.input_bytes"] = self.counts["input_bytes"] * per
        out["relators.build_s"] = self_time["relators"] * per
        out["relators.build_calls"] = sum(self.calls[name] for name in RELATOR_BUILDERS) * per
        out["cli.main_s"] = self_time["cli"] * per
        for layer in SELF_LAYERS:
            out[f"{layer}.self_s"] = self_time[layer] * per
        out["op.total_s"] = total["op"] * per
        return out

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, key in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent, "op": key}) + "\n")
