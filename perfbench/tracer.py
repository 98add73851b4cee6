"""Per-layer counters installed from outside the library.

Each traced public function is replaced by a wrapper in every
``linkchroma`` module that holds a reference to it (including the package
``__init__``), and methods are replaced on their class.  Nothing under
``src/`` is edited.  A wrapper counts only while the tracer's phase equals
the phase its function is reported for:

* ``op``: inside a benchmark operation (most layers);
* ``setup``: while the benchmark generates its inputs
  (``random_planar_paired_graph``, ``enumerate_small_complexes``);
* ``check``: while the benchmark checks answers (the brute-force oracle,
  which is timed outside the operations).

The library is single-threaded and has no queues, so there is no waiting
time to record: each layer gets calls, inclusive seconds and errors.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter

# (name, mode, phase).  ``count`` wrappers skip the clock: they sit on
# functions called millions of times per run, where two clock reads per
# call would dominate what is measured.
SPECS = (
    ("core.Multigraph", "timed", "op"),
    ("core.id_sort_key", "count", "op"),
    ("core.simple_quotient", "timed", "op"),
    ("core.paired_quotient", "count", "op"),
    ("core.genus_check", "timed", "op"),
    ("core.validate_rotation", "count", "op"),
    ("core.link_graph", "timed", "op"),
    ("colour.heawood_degeneracy_order", "timed", "op"),
    ("colour.heawood_colour_12", "timed", "op"),
    ("colour.is_valid_pair_colouring", "timed", "op"),
    ("colour.chromatic_number", "timed", "op"),
    ("colour.brute_force_edge_chromatic", "timed", "check"),
    ("construct.make_degree_faithful", "timed", "op"),
    ("construct.pi_trail_decomposition", "timed", "op"),
    ("construct.inverse_link", "timed", "op"),
    ("construct.seal", "timed", "op"),
    ("construct.verify_witness", "timed", "op"),
    ("construct.random_planar_paired_graph", "timed", "setup"),
    ("formats.dumps", "timed", "op"),
    ("formats.loads", "timed", "op"),
    ("formats.complex_to_doc", "timed", "op"),
    ("formats.complex_from_doc", "timed", "op"),
    ("search.search_witness", "timed", "op"),
    ("search.exact_pairing", "timed", "op"),
    ("triangulate.SphereTriangulation.flip", "count", "op"),
    ("corpus.enumerate_small_complexes", "timed", "setup"),
)

# Classes whose construction is traced through ``__post_init__``.
_CONSTRUCTORS = {"core.Multigraph"}


class Stat:
    __slots__ = ("calls", "errors", "seconds")

    def __init__(self):
        self.calls = 0
        self.errors = 0
        self.seconds = 0.0


class Tracer:
    """Counters for every entry of ``SPECS`` plus a few layer-specific
    tallies in ``extra``; ``phase`` selects which wrappers count."""

    def __init__(self):
        self.phase = None
        self.stats = {name: Stat() for name, _, _ in SPECS}
        self.extra = Counter()
        self._undo = []

    def reset(self) -> None:
        self.stats = {name: Stat() for name, _, _ in SPECS}
        self.extra = Counter()

    def snapshot(self) -> dict:
        out = {}
        for name, mode, _ in SPECS:
            st = self.stats[name]
            out[f"{name}.calls"] = st.calls
            out[f"{name}.errors"] = st.errors
            if mode == "timed":
                out[f"{name}.s"] = st.seconds
        out.update(self.extra)
        return out

    # -- installation -------------------------------------------------------

    def install(self, lib) -> None:
        """Replace every traced function in every loaded linkchroma module."""
        self.solver_log_type = lib.colour.SolverLog
        modules = [m for k, m in sys.modules.items() if k == "linkchroma" or k.startswith("linkchroma.")]
        for name, mode, phase in SPECS:
            module_name, _, attr = name.partition(".")
            owner = getattr(lib, module_name)
            if "." in attr or name in _CONSTRUCTORS:
                cls_name, _, method = attr.partition(".")
                cls = getattr(owner, cls_name)
                method = method or "__post_init__"
                original = cls.__dict__[method]
                setattr(cls, method, self._wrap(name, mode, phase, original))
                self._undo.append((cls, method, original))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(name, mode, phase, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._undo.append((mod, key, original))

    def uninstall(self) -> None:
        for target, key, original in reversed(self._undo):
            setattr(target, key, original)
        self._undo.clear()

    # -- wrappers -------------------------------------------------------------

    def _wrap(self, name, mode, phase, fn):
        tracer = self
        if name == "corpus.enumerate_small_complexes":
            return self._wrap_generator(name, phase, fn)
        if mode == "count":

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                if tracer.phase != phase:
                    return fn(*args, **kwargs)
                stat = tracer.stats[name]
                stat.calls += 1
                try:
                    return fn(*args, **kwargs)
                except BaseException:
                    stat.errors += 1
                    raise

            return counted

        after = _AFTER.get(name)
        depth = 0

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            nonlocal depth
            if tracer.phase != phase:
                return fn(*args, **kwargs)
            stat = tracer.stats[name]
            stat.calls += 1
            log = None
            if name == "colour.chromatic_number":
                args, kwargs, log = _ensure_solver_log(tracer, args, kwargs)
            depth += 1
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stat.errors += 1
                raise
            finally:
                depth -= 1
                if depth == 0:
                    stat.seconds += time.perf_counter() - t0
            if after is not None:
                after(tracer.extra, result, log)
            return result

        return timed

    def _wrap_generator(self, name, phase, fn):
        tracer = self

        @functools.wraps(fn)
        def generator(*args, **kwargs):
            counting = tracer.phase == phase
            stat = tracer.stats[name]
            if counting:
                stat.calls += 1
            it = fn(*args, **kwargs)
            while True:
                t0 = time.perf_counter()
                try:
                    item = next(it)
                except StopIteration:
                    return
                except BaseException:
                    if counting:
                        stat.errors += 1
                    raise
                finally:
                    if counting:
                        stat.seconds += time.perf_counter() - t0
                yield item

        return generator


def _ensure_solver_log(tracer, args, kwargs):
    """Pass a ``SolverLog`` to ``chromatic_number`` when the caller gave
    none, so branch nodes are counted on every solve."""
    if len(args) >= 2 and args[1] is not None:
        return args, kwargs, args[1]
    if kwargs.get("log") is not None:
        return args, kwargs, kwargs["log"]
    log = tracer.solver_log_type([], 0, 0)
    if len(args) >= 2:
        args = (args[0], log) + tuple(args[2:])
    else:
        kwargs = dict(kwargs, log=log)
    return args, kwargs, log


def _after_chromatic(extra, result, log):
    extra["colour.chromatic_number.branch_nodes"] += log.branch_nodes
    if len(log.clique) == log.dsatur_upper:
        extra["colour.chromatic_number.closed_at_root"] += 1


def _after_exact_pairing(extra, result, log):
    if result is not None:
        extra["search.exact_pairing.hits"] += 1


def _after_dumps(extra, result, log):
    # ``json.dumps`` escapes non-ASCII, so characters are bytes.
    extra["formats.bytes_written"] += len(result)


_AFTER = {
    "colour.chromatic_number": _after_chromatic,
    "search.exact_pairing": _after_exact_pairing,
    "formats.dumps": _after_dumps,
}
