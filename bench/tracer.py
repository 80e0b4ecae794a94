"""Per-layer tracing of the kontact package, installed from outside it.

The package binds its helpers by name (``from .ad import dot, ...`` in
several modules, and ``cli`` imports each checker by name), so patching
the defining module alone would miss most calls.  ``Tracer.install``
therefore replaces every binding of a traced object in every loaded
``kontact.*`` namespace, and ``uninstall`` puts the originals back.

Three kinds of wrapper:

* ``span``: timed, and each call is kept as a span (name, start, end,
  parent span id).  Used at the coarse boundaries only.
* ``timed``: timed into aggregates (calls, inclusive and self seconds)
  without keeping per-call records, for functions called too often to
  keep every span.
* ``count``: a call counter only, for the hot dual-number helpers
  (over 10^5 calls per 30 S^7 points).

Self time of a timed call is its duration minus the durations of the
timed calls nested directly inside it.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import defaultdict

# (module, attribute, kind); kind "alloc" counts instances built by a class.
TARGETS = (
    ("ad", "directional", "timed"),
    ("ad", "jacobian_rows", "timed"),
    ("ad", "dot", "count"),
    ("ad", "sv", "count"),
    ("ad", "Dual", "alloc"),
    ("manifold", "cov_deriv", "span"),
    ("manifold", "lie_bracket", "count"),
    ("manifold", "gram_schmidt_frame", "span"),
    ("manifold", "curvature_numeric", "count"),
    ("manifold", "sample_points", "timed"),
    ("manifold", "TangentVector", "alloc"),
    ("scalar_fields", "laplacian", "timed"),
    ("scalar_fields", "level_mean_curvature", "timed"),
    ("scalar_fields", "gradient", "count"),
    ("contact", "exterior_derivative", "span"),
    ("contact", "pfaffian", "timed"),
    ("contact", "build_from_complex_structure", "timed"),
    ("double_kcontact", "hbundle_basis", "span"),
    ("double_kcontact", "standard_pair", "timed"),
    ("harmonic", "harmonicity_form", "span"),
    ("harmonic", "weingarten_ambient_matrix", "timed"),
    ("harmonic", "mean_curvature_of_field", "count"),
    ("harmonic", "energy", "span"),
)


class Tracer:
    """Counters, timers and spans for one traced process."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.incl_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.spans = []            # (name, start, end, parent span id)
        self.energy_samples = 0
        self.energy_kept = 0
        self._stack = []           # [child seconds, enclosing span id]
        self._patched = []         # (namespace owner, key, original)

    # -- wrappers ---------------------------------------------------------

    def _timed(self, name, fn, record):
        stack, spans = self._stack, self.spans
        calls, incl, self_s = self.calls, self.incl_s, self.self_s
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            parent = stack[-1][1] if stack else -1
            sid = len(spans) if record else parent
            if record:
                spans.append(None)   # reserve the id; filled in on exit
            frame = [0.0, sid]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                d = t1 - t0
                calls[name] += 1
                incl[name] += d
                self_s[name] += d - frame[0]
                if stack:
                    stack[-1][0] += d
                if record:
                    spans[sid] = (name, t0, t1, parent)

        wrapper.__wrapped__ = fn
        return wrapper

    def _counted(self, name, fn):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _energy(self, fn):
        def wrapper(*args, **kwargs):
            est = fn(*args, **kwargs)
            self.energy_samples += est.samples
            self.energy_kept += est.samples - est.skipped
            return est

        return self._timed("harmonic.energy", wrapper, record=True)

    def _catalog(self, fn):
        """Wrap each suite check returned by ``cli._check_catalog`` in a span."""
        def wrapper(*args, **kwargs):
            return [(name, self._timed(f"cli.check.{name}", check, record=True))
                    for name, check in fn(*args, **kwargs)]

        return wrapper

    # -- installation -----------------------------------------------------

    def _rebind(self, original, replacement):
        for modname, mod in list(sys.modules.items()):
            if modname != "kontact" and not modname.startswith("kontact."):
                continue
            for key, val in list(vars(mod).items()):
                if val is original:
                    self._patched.append((mod, key, original))
                    setattr(mod, key, replacement)

    def install(self):
        """Wrap every target in every loaded ``kontact`` module namespace."""
        importlib.import_module("kontact.cli")   # loads every submodule
        for modname, attr, kind in TARGETS:
            mod = sys.modules[f"kontact.{modname}"]
            obj = getattr(mod, attr)
            name = f"{modname}.{attr}"
            if kind == "alloc":
                init = obj.__init__
                self._patched.append((obj, "__init__", init))
                obj.__init__ = self._counted(name, init)
                continue
            if attr == "energy":
                wrapped = self._energy(obj)
            elif kind == "count":
                wrapped = self._counted(name, obj)
            else:
                wrapped = self._timed(name, obj, record=(kind == "span"))
            self._rebind(obj, wrapped)
        cli = sys.modules["kontact.cli"]
        self._rebind(cli._check_catalog, self._catalog(cli._check_catalog))
        for render in (cli.render_json, cli.render_csv):
            self._rebind(render, self._timed("cli.render", render, record=True))

    def uninstall(self):
        for owner, key, original in reversed(self._patched):
            setattr(owner, key, original)
        self._patched.clear()

    # -- output -----------------------------------------------------------

    def dump(self, path):
        """Write aggregates and every kept span to ``path`` as JSON."""
        doc = {
            "calls": dict(self.calls),
            "incl_s": dict(self.incl_s),
            "self_s": dict(self.self_s),
            "energy_samples": self.energy_samples,
            "energy_kept": self.energy_kept,
            "span_fields": ["name", "start", "end", "parent"],
            "spans": self.spans,
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)
