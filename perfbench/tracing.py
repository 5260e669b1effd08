"""In-memory span tracer that wraps lbforge's public functions from outside.

Nothing in the package is edited: ``Tracer.install`` replaces each listed
function (and every ``from .x import y`` binding of it in other lbforge
modules) with a wrapper, and ``Tracer.uninstall`` puts the originals back.

Two kinds of wrapper exist.  A *span* wrapper records name, start, end,
parent span and job id, and charges its duration to the parent so that
self time (duration minus time covered by child spans) can be summed per
function and per module.  A *count* wrapper only counts calls; it is used
for the hot primitives, whose time stays in the enclosing span.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
from array import array
from collections import Counter, defaultdict
from time import perf_counter


def _delta_key(args):
    _alg, r, f = args[:3]
    return id(r), tuple(sorted(f.items()))


def _dual_basis_key(args):
    alg, w, truncation = args[:3]
    return alg.n, repr(w), truncation


def _spec_key(args):
    return args[0]


def _build_r_after(tracer, args, result):
    tracer.counts["rmatrix.build_r.entries"] += len(result.entries)


def _cyb_before(tracer, args):
    r = args[1]
    tracer.counts["rmatrix.cyb_spectral.input_monomials"] += sum(
        len(val.num) for _, val in r.items()
    )


def _gauss_before(tracer, args):
    rows = args[0]
    m = len(rows)
    n = len(rows[0]) if m else 0
    tracer.counts["sparse.gauss_solve.rows"] += m
    tracer.counts["sparse.gauss_solve.cols"] += n
    if tracer.current_span_name() == "lagrangian.dual_basis":
        tracer.counts["lagrangian.dual_basis.system_rows"] += m
        tracer.counts["lagrangian.dual_basis.system_cols"] += n


def _rowspan_add_after(tracer, args, result):
    if result:
        tracer.counts["sparse.RowSpan.add.accepted"] += 1


def _dump_after(tracer, args, result):
    tracer.counts["serialize.dump.bytes"] += len(result.encode("utf-8"))


def _load_before(tracer, args):
    try:
        tracer.counts["serialize.load.bytes"] += os.path.getsize(args[0])
    except OSError:
        pass  # load itself reports the unreadable path


def _main_after(tracer, args, result):
    if result != 0:
        tracer.counts["cli.main.exit_nonzero"] += 1


# (module, attribute path, kind, repeat-key, before-hook, after-hook)
TARGETS = [
    ("cobracket", "axiom_sweep", "span", None, None, None),
    ("cobracket", "delta", "span", _delta_key, None, None),
    ("cobracket", "check_skew", "span", None, None, None),
    ("cobracket", "check_cojacobi", "span", None, None, None),
    ("cobracket", "check_cocycle", "span", None, None, None),
    ("cobracket", "bracket_poly", "count", None, None, None),
    ("rmatrix", "build_r", "span", None, None, _build_r_after),
    ("rmatrix", "cyb_spectral", "span", None, _cyb_before, None),
    ("rmatrix", "skew_spectral_check", "span", None, None, None),
    ("rmatrix", "expand_region", "span", None, None, None),
    ("rmatrix", "sum_dual_series", "span", None, None, None),
    ("lagrangian", "dual_basis", "span", _dual_basis_key, None, None),
    ("lagrangian", "is_lagrangian", "span", None, None, None),
    ("lagrangian", "window_basis", "span", None, None, None),
    ("lagrangian", "de_bracket", "span", None, None, None),
    ("lagrangian", "catalog_w0", "span", None, None, None),
    ("pairing", "q_form", "span", None, None, None),
    ("pairing", "CaseSpec.a", "count", _spec_key, None, None),
    ("pairing", "embed_canonical", "count", None, None, None),
    ("sparse", "gauss_solve", "span", None, _gauss_before, None),
    ("sparse", "RowSpan.add", "count", None, None, _rowspan_add_after),
    ("sparse", "RowSpan.contains", "span", None, None, None),
    ("sparse", "poly_mul", "count", None, None, None),
    ("ratfun", "poly2_divide_vu", "span", None, None, None),
    ("ratfun", "expand_at_zero", "count", None, None, None),
    ("liealg", "build_sl", "span", None, None, None),
    ("liealg", "bracket_basis", "count", None, None, None),
    ("serialize", "dump", "span", None, None, _dump_after),
    ("serialize", "load", "span", None, _load_before, None),
    ("serialize", "tensor_from_doc", "span", None, None, None),
    ("twist", "quasi_twist_verify", "span", None, None, None),
    ("cli", "main", "span", None, None, _main_after),
]

MODULES = sorted({module for module, *_ in TARGETS})


class Tracer:
    """Spans and counters for one traced run, kept in memory until written."""

    def __init__(self):
        self.names = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_job = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.job_labels = []
        self.counts = Counter()
        self.self_time = defaultdict(float)
        self._stack = []  # [span index, time covered by children]
        self._seen = defaultdict(set)
        self._job = -1
        self._patches = []

    # -- jobs ---------------------------------------------------------------

    def begin_job(self, label):
        """Start a job: later spans carry its id; repeat sets start empty."""
        self.job_labels.append(label)
        self._job = len(self.job_labels) - 1
        self._seen.clear()

    def current_span_name(self):
        if not self._stack:
            return None
        return self.names[self.span_name[self._stack[-1][0]]]

    # -- wrappers -----------------------------------------------------------

    def _record_repeat(self, name, key):
        seen = self._seen[name]
        if key in seen:
            self.counts[name + ".repeats"] += 1
        else:
            seen.add(key)

    def _span_wrapper(self, name, fn, key_fn, before, after):
        name_id = len(self.names)
        self.names.append(name)
        counts = self.counts
        stack = self._stack
        self_time = self.self_time
        calls_key = name + ".calls"
        errors_key = name + ".errors"

        def wrapper(*args, **kwargs):
            counts[calls_key] += 1
            if key_fn is not None:
                self._record_repeat(name, key_fn(args))
            if before is not None:
                before(self, args)
            idx = len(self.span_start)
            self.span_name.append(name_id)
            self.span_parent.append(stack[-1][0] if stack else -1)
            self.span_job.append(self._job)
            self.span_end.append(0.0)
            frame = [idx, 0.0]
            stack.append(frame)
            start = perf_counter()
            self.span_start.append(start)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                counts[errors_key] += 1
                raise
            finally:
                end = perf_counter()
                stack.pop()
                self.span_end[idx] = end
                dur = end - start
                self_time[name] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
            if after is not None:
                after(self, args, result)
            return result

        return wrapper

    def _count_wrapper(self, name, fn, key_fn, after):
        counts = self.counts
        calls_key = name + ".calls"

        def wrapper(*args, **kwargs):
            counts[calls_key] += 1
            if key_fn is not None:
                self._record_repeat(name, key_fn(args))
            result = fn(*args, **kwargs)
            if after is not None:
                after(self, args, result)
            return result

        return wrapper

    def install(self):
        """Wrap every target and each module-level binding of it."""
        lb_modules = [
            mod for modname, mod in list(sys.modules.items())
            if modname == "lbforge" or modname.startswith("lbforge.")
        ]
        for module, path, kind, key_fn, before, after in TARGETS:
            mod = importlib.import_module(f"lbforge.{module}")
            name = f"{module}.{path}"
            owner = mod
            parts = path.split(".")
            for part in parts[:-1]:
                owner = getattr(owner, part)
            attr = parts[-1]
            original = getattr(owner, attr)
            if kind == "span":
                wrapped = self._span_wrapper(name, original, key_fn, before, after)
            else:
                wrapped = self._count_wrapper(name, original, key_fn, after)
            self._patch(owner, attr, original, wrapped)
            if owner is mod:
                for other in lb_modules:
                    for binding, value in list(vars(other).items()):
                        if value is original and not (other is mod and binding == attr):
                            self._patch(other, binding, original, wrapped)

    def _patch(self, owner, attr, original, wrapped):
        setattr(owner, attr, wrapped)
        self._patches.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results ------------------------------------------------------------

    def module_self_time(self):
        out = dict.fromkeys(MODULES, 0.0)
        for name, secs in self.self_time.items():
            out[name.split(".", 1)[0]] += secs
        return out

    def write(self, path, meta):
        """Write the spans as columnar JSON, times in microseconds from the
        first span."""
        origin = self.span_start[0] if self.span_start else 0.0
        doc = dict(meta)
        doc["names"] = self.names
        doc["jobs"] = self.job_labels
        doc["spans"] = {
            "name": list(self.span_name),
            "parent": list(self.span_parent),
            "job": list(self.span_job),
            "start_us": [round((t - origin) * 1e6) for t in self.span_start],
            "end_us": [round((t - origin) * 1e6) for t in self.span_end],
        }
        tmp = f"{path}.tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))
        os.replace(tmp, path)


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer, names, extra):
    """Value of every per-layer metric in ``names``, each named
    ``<module>.<function>.<stat>`` or ``<module>.self_s``; ``extra``
    supplies those measured outside the wrappers (trace totals, the
    corrupted-input outcome)."""
    modules = tracer.module_self_time()
    targets = {f"{module}.{path}" for module, path, *_ in TARGETS}
    counts = tracer.counts
    out = {}
    for name in names:
        fn, stat = name.rsplit(".", 1)
        if name in extra:
            value = extra[name]
        elif fn in modules and stat == "self_s":
            value = modules[fn]
        elif fn not in targets:
            raise KeyError(f"no traced function for metric {name}")
        elif stat == "self_s":
            value = tracer.self_time.get(fn, 0.0)
        elif stat == "repeat_ratio":
            value = _ratio(counts[fn + ".repeats"], counts[fn + ".calls"])
        elif stat == "accept_ratio":
            value = _ratio(counts[fn + ".accepted"], counts[fn + ".calls"])
        else:
            value = counts[name]
        out[name] = value
    return out
