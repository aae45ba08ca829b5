"""Per-layer tracer for perclap, installed from outside the package.

perclap modules import functions from each other by name (``runner``
binds ``clusters``, ``cluster_eigenvalues`` and ``cheeger_constant``;
``spectral`` binds ``assemble`` and ``clusters``), so wrapping only the
defining module would miss most calls.  :meth:`Tracer.install` replaces
each target at every binding inside the package and :meth:`uninstall`
puts the originals back.

Per-call data are aggregated per (function, parent) as call count,
inclusive time and self time; a span list is kept only for the coarse
entry points, because a span per ``cluster_eigenvalues`` lookup (about
1.8M on the d=1 workload) would distort the run it measures.

Shape keys are computed here from a cluster's coordinates and edges.
``Cluster.canonical_key`` is never called: it memoizes on the object,
so calling it would leave the traced program with less work to do.
"""

import functools
import importlib
import sys
import time

PACKAGE = "perclap"

# Functions wrapped, as "<module>.<name>".  Those in SPANNED also keep
# one span per call; the rest are per-cluster and only aggregated.
TARGETS = (
    "kernels.edge_open_mask",
    "kernels.component_roots",
    "kernels.best_cheeger_cut",
    "lattice.sample_graph",
    "lattice.clusters",
    "laplacian.assemble",
    "spectral.cluster_eigenvalues",
    "spectral.eigenvalues",
    "spectral.count_leq",
    "spectral.empirical_ids",
    "isoperimetry.cheeger_constant",
    "isoperimetry.fk_ratio",
    "tails.analytic_tail_fit",
    "tails.fit_tail",
    "tails.cluster_size_decay",
    "runner._sample_ensemble",
    "runner._run_ids",
    "runner._run_verify",
    "runner._run_tails",
    "runner._run_decay",
)

# runner stage functions and the stage names their metrics use
STAGES = {
    "runner._sample_ensemble": "sample",
    "runner._run_ids": "ids",
    "runner._run_verify": "verify",
    "runner._run_tails": "tails",
    "runner._run_decay": "decay",
}

SPANNED = frozenset(STAGES) | {
    "lattice.clusters",
    "spectral.empirical_ids",
    "tails.analytic_tail_fit",
    "tails.fit_tail",
    "tails.cluster_size_decay",
}

ROOT = "<root>"
_MB = float(1 << 20)


def shape_key(cluster):
    """Translation-invariant structure key of a cluster.

    Equal to ``cluster.canonical_key()`` but computed without touching
    the cluster's memoized key.
    """
    coords = cluster.coords
    shifted = coords - coords.min(axis=0)
    return (cluster.d, shifted.tobytes(), cluster.edges.tobytes())


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def package_modules():
    """Loaded modules of the package, the package itself included."""
    return [
        mod for name, mod in list(sys.modules.items())
        if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]


class Tracer:
    """Aggregating call tracer over the functions in ``targets``."""

    def __init__(self, targets=TARGETS):
        self.targets = tuple(targets)
        self.originals = {}   # target -> original function
        self.bindings = {}    # target -> [(module name, attribute)]
        self.absent = []      # targets not found in the package
        self.spans = []       # (name, start, end, parent)
        self._agg = {}        # (name, parent) -> [calls, inclusive s, self s]
        self._stack = [[ROOT, 0.0]]
        self.counts = {
            "kernels.edges_drawn": 0,
            "kernels.vertices_labeled": 0,
            "kernels.cut_subsets": 0,
            "lattice.clusters_out": 0,
            "laplacian.matrix_bytes": 0,
            "spectral.lookups": 0,
        }
        self._graphs = {}     # id -> graph passed to clusters()
        self._solved = set()  # (bc, shape key) of every dense solve

    # -- argument and result probes, run outside the wrapped call's span

    def _probe_edge_open_mask(self, args, kwargs, result):
        self.counts["kernels.edges_drawn"] += int(_arg(args, kwargs, 1, "n"))

    def _probe_component_roots(self, args, kwargs, result):
        self.counts["kernels.vertices_labeled"] += int(_arg(args, kwargs, 0, "n_vertices"))

    def _probe_best_cheeger_cut(self, args, kwargs, result):
        self.counts["kernels.cut_subsets"] += 1 << int(_arg(args, kwargs, 0, "n_vertices"))

    def _probe_clusters(self, args, kwargs, result):
        graph = _arg(args, kwargs, 0, "graph")
        self._graphs.setdefault(id(graph), graph)
        self.counts["lattice.clusters_out"] += len(result)

    def _probe_assemble(self, args, kwargs, result):
        n = _arg(args, kwargs, 0, "cluster").n_vertices
        self.counts["laplacian.matrix_bytes"] += 8 * n * n

    def _probe_cluster_eigenvalues(self, args, kwargs, result):
        if _arg(args, kwargs, 0, "cluster").n_vertices >= 2:
            self.counts["spectral.lookups"] += 1

    def _probe_eigenvalues(self, args, kwargs, result):
        op = _arg(args, kwargs, 0, "op")
        self._solved.add((op.bc.value, shape_key(op.cluster)))

    def _probe(self, target):
        return {
            "kernels.edge_open_mask": self._probe_edge_open_mask,
            "kernels.component_roots": self._probe_component_roots,
            "kernels.best_cheeger_cut": self._probe_best_cheeger_cut,
            "lattice.clusters": self._probe_clusters,
            "laplacian.assemble": self._probe_assemble,
            "spectral.cluster_eigenvalues": self._probe_cluster_eigenvalues,
            "spectral.eigenvalues": self._probe_eigenvalues,
        }.get(target)

    # -- installation

    def _wrap(self, name, fn):
        stack, agg, spans = self._stack, self._agg, self.spans
        probe = self._probe(name)
        spanned = name in SPANNED
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1]
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                elapsed = t1 - t0
                parent[1] += elapsed
                key = (name, parent[0])
                row = agg.get(key)
                if row is None:
                    row = agg[key] = [0, 0.0, 0.0]
                row[0] += 1
                row[1] += elapsed
                row[2] += elapsed - frame[1]
                if spanned:
                    spans.append((name, t0, t1, parent[0]))
            if probe is not None:
                probe(args, kwargs, result)
            return result

        return traced

    def install(self):
        """Wrap every target at every binding in the loaded package."""
        importlib.import_module(PACKAGE)
        modules = package_modules()
        for target in self.targets:
            mod_name, attr = target.split(".", 1)
            try:
                fn = getattr(importlib.import_module(f"{PACKAGE}.{mod_name}"), attr)
            except (ImportError, AttributeError):
                self.absent.append(target)
                continue
            wrapper = self._wrap(target, fn)
            self.originals[target] = fn
            sites = []
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, key, wrapper)
                        sites.append((mod.__name__, key))
            self.bindings[target] = sites
        return self

    def uninstall(self):
        for target, sites in self.bindings.items():
            for mod_name, key in sites:
                setattr(sys.modules[mod_name], key, self.originals[target])
        self.bindings = {}

    # -- results

    def _rows(self, name):
        return [(parent, row) for (fn, parent), row in self._agg.items() if fn == name]

    def calls(self, name):
        return sum(row[0] for _, row in self._rows(name))

    def inclusive_s(self, name):
        """Inclusive time of the outermost calls (re-entry not double counted)."""
        return sum(row[1] for parent, row in self._rows(name) if parent != name)

    def self_s(self, name):
        return sum(row[2] for _, row in self._rows(name))

    def distinct_shapes(self):
        clusters = self.originals["lattice.clusters"]
        return len({shape_key(c) for g in self._graphs.values() for c in clusters(g)})

    def table(self):
        """Aggregates as (function, parent, calls, inclusive s, self s) rows."""
        return sorted(
            ((fn, parent, *row) for (fn, parent), row in self._agg.items()),
            key=lambda r: -r[3],
        )

    def metrics(self, wall_s):
        """Per-layer metrics of the traced run that took ``wall_s`` seconds.

        A metric whose target is absent from the package is left out,
        neither zero nor an error.
        """
        have = set(self.originals)
        m = {}

        def put(name, value, *needs):
            if all(t in have for t in needs):
                m[name] = value

        for t in ("kernels.edge_open_mask", "kernels.component_roots",
                  "kernels.best_cheeger_cut", "laplacian.assemble",
                  "spectral.eigenvalues", "spectral.count_leq",
                  "isoperimetry.cheeger_constant", "isoperimetry.fk_ratio",
                  "tails.cluster_size_decay"):
            put(f"{t}.calls", self.calls(t), t)
            put(f"{t}.s", self.inclusive_s(t), t)
        for t in ("lattice.clusters", "spectral.empirical_ids"):
            put(f"{t}.calls", self.calls(t), t)
            put(f"{t}.self_s", self.self_s(t), t)
        for t in ("lattice.sample_graph", "tails.analytic_tail_fit", "tails.fit_tail"):
            put(f"{t}.s", self.inclusive_s(t), t)
        put("spectral.cluster_eigenvalues.calls",
            self.calls("spectral.cluster_eigenvalues"), "spectral.cluster_eigenvalues")
        put("tails.cluster_size_decay.self_s",
            self.self_s("tails.cluster_size_decay"), "tails.cluster_size_decay")

        put("kernels.edges_drawn", self.counts["kernels.edges_drawn"],
            "kernels.edge_open_mask")
        put("kernels.vertices_labeled", self.counts["kernels.vertices_labeled"],
            "kernels.component_roots")
        put("kernels.cut_subsets", self.counts["kernels.cut_subsets"],
            "kernels.best_cheeger_cut")
        put("lattice.clusters_out", self.counts["lattice.clusters_out"], "lattice.clusters")
        if "lattice.clusters" in have:
            m["lattice.distinct_shapes"] = self.distinct_shapes()
        put("laplacian.matrix_mb", self.counts["laplacian.matrix_bytes"] / _MB,
            "laplacian.assemble")

        solves = self.calls("spectral.eigenvalues")
        lookups = self.counts["spectral.lookups"]
        put("spectral.cache_hit_ratio", 1.0 - solves / lookups if lookups else 0.0,
            "spectral.eigenvalues", "spectral.cluster_eigenvalues")
        put("spectral.solves_per_shape",
            solves / len(self._solved) if self._solved else 0.0, "spectral.eigenvalues")
        put("spectral.inertia_retries",
            sum(row[0] for parent, row in self._rows("spectral.count_leq")
                if parent == "spectral.count_leq"),
            "spectral.count_leq")

        for target, stage in STAGES.items():
            put(f"runner.stage.{stage}.s", self.inclusive_s(target), target)
        put("runner.stage.verify.self_s", self.self_s("runner._run_verify"),
            "runner._run_verify")
        top = sum(end - start for _, start, end, parent in self.spans if parent == ROOT)
        m["trace.unaccounted_s"] = wall_s - top
        return m
