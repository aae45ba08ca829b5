"""Task orchestration: ensembles, persistence, reproducible manifests.

Every stage works on one :class:`~perclap.lattice.ShapeEnsemble` of the
sampled realizations, once per distinct cluster shape.  Outputs are
byte-deterministic functions of the config: seeds are derived
positionally per realization, ``report.csv`` rows follow realization and
cluster order, and no timestamps enter any file.
"""

import hashlib
import json
from pathlib import Path

import numpy as np

from . import kernels
from .config import ExperimentConfig
from .exceptions import DomainError, InsufficientDataError, PerclapError
from .isoperimetry import VIOLATION_KINDS, check_stack
from .laplacian import ALL_BCS, BoundaryCondition, require_dense
from .lattice import LatticeBox, ShapeEnsemble, graph_to_json_dict, sample_graph
from .spectral import default_grid, empirical_ids, shape_spectra
from .tails import analytic_tail_fit, cluster_size_decay, decay_domain_problem, fit_tail

ANALYTIC_TAILS_D1_ONLY = "analytic tail fits require d = 1"


def expected_slope(bc_name: str, edge: str, d: int) -> float:
    """Band-edge tail exponent: -1/2 at the Neumann lower edge, -d/2 at
    the other lower edges; an upper edge is the lower edge of its mirror."""
    bc = BoundaryCondition(bc_name)
    if edge == "upper":
        bc = bc.mirror
    return -0.5 if bc is BoundaryCondition.NEUMANN else -d / 2.0


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _write_chunks(path: Path, chunks) -> str:
    """Write the text chunks in order; the SHA-256 of the file's bytes."""
    digest = hashlib.sha256()
    with path.open("wb") as fh:
        for text in chunks:
            data = text.encode()
            fh.write(data)
            digest.update(data)
    return digest.hexdigest()


def _write_text(path: Path, text: str) -> str:
    return _write_chunks(path, (text,))


def _write_json(path: Path, obj) -> str:
    return _write_text(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _ids_csv(ids) -> str:
    lines = ["E,N"]
    for e, v in zip(ids.grid, ids.grid_values):
        lines.append(f"{_fmt(e)},{_fmt(v)}")
    return "\n".join(lines) + "\n"


def _sample_ensemble(cfg: ExperimentConfig, outputs, out) -> ShapeEnsemble:
    """Sample the realizations and decompose each into the shape table as
    it is drawn, so only one realization is held at a time; with
    ``emit_graph`` each is written out as it is drawn."""
    box = LatticeBox(cfg.d, cfg.L)

    def graphs():
        for i in range(cfg.realizations):
            g = sample_graph(box, cfg.p, kernels.derive_seed(cfg.seed, i))
            if cfg.emit_graph:
                fname = f"graph_r{i:04d}.json"
                outputs[fname] = _write_json(out / fname, graph_to_json_dict(g))
            yield g

    return ShapeEnsemble(graphs())


def _ids(cfg, name, ensemble, grid, cache):
    """The run's IDS under one boundary condition.  In mc tail mode the
    tails stage reads it again, so it is pooled once and kept in the
    run's cache under ``("ids", name)``; otherwise no later stage holds
    it (on d2_decay, d=2 L=24 x 50, the three would add 0.45 MB to the
    peak RSS of verify)."""
    key = ("ids", name)
    ids = cache.get(key)
    if ids is None:
        ids = empirical_ids(ensemble, BoundaryCondition(name), grid=grid, cache=cache)
        if cfg.tail_mode == "mc":
            cache[key] = ids
    return ids


def _run_ids(cfg, ensemble, grid, outputs, out, cache):
    for name in cfg.boundary_conditions:
        ids = _ids(cfg, name, ensemble, grid, cache)
        fname = f"ids_{name}.csv"
        outputs[fname] = _write_text(out / fname, _ids_csv(ids))
        summary = {
            "bc": name,
            "p": cfg.p,
            "d": cfg.d,
            "L": cfg.L,
            "realizations": cfg.realizations,
            "seed": cfg.seed,
            "kappa_hat": ids.n_clusters / ids.total_vertices,
            "total_vertices": ids.total_vertices,
        }
        sname = f"summary_{name}.json"
        outputs[sname] = _write_json(out / sname, summary)


def _report_rows(rep) -> list:
    """The report.csv rows, each with its newline, of a
    :class:`~perclap.isoperimetry.StackReport`; the Cheeger fields are
    empty above the cutoff."""
    n = rep.n_vertices
    return [
        f"{n},{_fmt(e_n)},{_fmt(e_dt)},{_fmt(e_d)},{'' if h is None else _fmt(h)},"
        f"{'' if margin is None else _fmt(margin)},{_fmt(crude)},{_fmt(fk)}\n"
        for e_n, e_dt, e_d, h, margin, crude, fk in zip(
            rep.e1_neumann.tolist(), rep.e1_pseudo_dirichlet.tolist(),
            rep.e1_dirichlet.tolist(), rep.h_cheeger, rep.cheeger_margin,
            rep.crude_margin.tolist(), rep.fk_ratio.tolist())
    ]


# clusters per chunk of report.csv rows joined and written at a time
_REPORT_CHUNK = 1 << 14


def _run_verify(cfg, ensemble, grid, outputs, out, cache):
    """Check every shape on the spectra that ``ids`` shares: one
    :func:`shape_spectra` call per boundary condition, after refusing
    the largest shape, the last, if it is above the dense threshold,
    before any solve; then one :func:`check_stack` per run of
    ``ensemble.bounds``, a vertex count, on its stacked spectra."""
    require_dense(ensemble.shapes[-1].n_vertices)
    by_bc = {bc: shape_spectra(ensemble, bc, cache) for bc in ALL_BCS}
    # shape id -> report.csv row with its newline, for shapes of 2 or more vertices
    rows = np.empty(len(ensemble.shapes), dtype=object)
    violations = dict.fromkeys(VIOLATION_KINDS, 0)
    fk_min = None
    bounds = ensemble.bounds.tolist()
    for r, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
        stacks = {bc: s[r] for bc, s in by_bc.items()}
        counts, rep = check_stack(ensemble.shapes[lo:hi], stacks, grid)
        weights = ensemble.counts[lo:hi]
        for kind, k in counts.items():
            violations[kind] += int(k @ weights)
        if rep is None:
            continue
        fk = float(rep.fk_ratio.min())
        fk_min = fk if fk_min is None else min(fk_min, fk)
        rows[lo:hi] = _report_rows(rep)

    def lines():
        yield "size,e1_N,e1_Dt,e1_D,h_ch,cheeger_margin,crude_margin,fk_ratio\n"
        for lo in range(0, ensemble.order.size, _REPORT_CHUNK):
            yield "".join(rows[ensemble.order[lo:lo + _REPORT_CHUNK]].tolist())

    outputs["report.csv"] = _write_chunks(out / "report.csv", lines())
    summary = {
        "clusters_checked": ensemble.n_clusters,
        "violations": violations,
        "fk_estimate": fk_min,
    }
    outputs["verify_summary.json"] = _write_json(out / "verify_summary.json", summary)


def _run_tails(cfg, ensemble, grid, outputs, out, cache, skipped):
    """Fit every band edge and write one ``tail_<bc>_<edge>.json`` per fit.

    A fit with too few usable points (in mc mode, typically an edge of a
    supercritical box that holds too little mass) is named in ``skipped``
    with its reason; the stage fails only if no fit succeeds.
    """
    if cfg.tail_mode == "analytic" and cfg.d != 1:
        raise DomainError(f"{ANALYTIC_TAILS_D1_ONLY}; use tail_mode 'mc' for d >= 2")
    window = tuple(cfg.tail_window)
    jobs = [("N", "lower"), ("Dt", "lower"), ("D", "upper"), ("Dt", "upper")]
    if cfg.tail_mode == "mc":
        jobs = [(name, edge) for name in cfg.boundary_conditions
                for edge in ("lower", "upper")]
    unfitted = {}
    for name, edge in jobs:
        stem = f"tail_{name}_{edge}"
        try:
            if cfg.tail_mode == "analytic":
                fit = analytic_tail_fit(cfg.p, BoundaryCondition(name), window, edge=edge)
            else:
                fit = fit_tail(_ids(cfg, name, ensemble, grid, cache), edge, window)
        except InsufficientDataError as exc:
            unfitted[stem] = f"{exc.kind}: {exc}"
            continue
        report = {
            "bc": name,
            "edge": edge,
            "d": cfg.d,
            "p": cfg.p,
            "window": list(window),
            "slope": fit.slope,
            "expected_slope": expected_slope(name, edge, cfg.d),
            "residual": fit.residual,
            "points": fit.n_points,
        }
        outputs[f"{stem}.json"] = _write_json(out / f"{stem}.json", report)
    skipped.update(unfitted)
    if len(unfitted) == len(jobs):
        raise InsufficientDataError(
            "no tail fit succeeded: "
            + "; ".join(f"{stem}: {reason}" for stem, reason in unfitted.items())
        )


def _run_decay(cfg, outputs, out):
    fit = cluster_size_decay(
        cfg.d, cfg.p, cfg.decay_samples,
        kernels.derive_seed(cfg.seed, 0xDECA), radius=cfg.decay_radius,
    )
    report = {
        "d": cfg.d,
        "p": cfg.p,
        "samples": cfg.decay_samples,
        "zeta_hat": fit.zeta_hat,
        "r2": fit.r_squared,
        "truncated": fit.truncated,
        "seed": cfg.seed,
    }
    outputs["decay.json"] = _write_json(out / "decay.json", report)


def _write_manifest(out, manifest, skipped):
    if skipped:
        manifest["skipped"] = skipped
    _write_json(out / "manifest.json", manifest)


def run(cfg: ExperimentConfig, out_dir, task: str | None = None) -> dict:
    """Execute a task and write all outputs plus a hashed manifest."""
    task = task or cfg.task
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    outputs: dict = {}
    skipped: dict = {}  # stage or output -> why it was not produced
    # (bc, cluster shape) -> spectrum, ("giant", shape) -> grid counts
    # of a shape above the dense threshold, and ("ids", bc) -> the run's
    # IDS under bc in mc tail mode; shared by every stage
    cache = {}

    manifest = {"config": {**cfg.to_dict(), "task": task}, "outputs": outputs,
                "status": "ok"}
    try:
        grid = default_grid(cfg.d, cfg.grid_points, cfg.grid_refine)
        needs_graphs = task in ("ids", "verify", "all") or (
            task == "tails" and cfg.tail_mode == "mc"
        )
        ensemble = _sample_ensemble(cfg, outputs, out) if needs_graphs else None
        if task in ("ids", "all"):
            _run_ids(cfg, ensemble, grid, outputs, out, cache)
        if task in ("verify", "all"):
            _run_verify(cfg, ensemble, grid, outputs, out, cache)
        if task in ("tails", "all"):
            if task == "all" and cfg.tail_mode == "analytic" and cfg.d != 1:
                skipped["tails"] = ANALYTIC_TAILS_D1_ONLY
            else:
                _run_tails(cfg, ensemble, grid, outputs, out, cache, skipped)
        if task in ("decay", "all"):
            problem = decay_domain_problem(cfg.d, cfg.p)
            if task == "all" and problem is not None:
                skipped["decay"] = problem
            else:
                _run_decay(cfg, outputs, out)
    except (PerclapError, MemoryError) as exc:
        manifest["status"] = "failed"
        manifest["failure"] = str(exc)
        _write_manifest(out, manifest, skipped)
        raise
    _write_manifest(out, manifest, skipped)
    return manifest
