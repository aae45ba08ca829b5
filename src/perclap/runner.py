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

from . import kernels
from .config import ExperimentConfig
from .exceptions import DomainError, InsufficientDataError, PerclapError
from .isoperimetry import VIOLATION_KINDS, check_shape
from .laplacian import BoundaryCondition
from .lattice import LatticeBox, ShapeEnsemble, graph_to_json_dict, sample_graph
from .spectral import cluster_spectra, default_grid, empirical_ids
from .tails import analytic_tail_fit, cluster_size_decay, decay_domain_problem, fit_tail

ANALYTIC_TAILS_D1_ONLY = "analytic tail fits require d = 1"


def expected_slope(bc_name: str, edge: str, d: int) -> float:
    """Band-edge tail exponent: -1/2 at the Neumann lower and the Dirichlet
    upper edge, -d/2 at every other edge."""
    if (bc_name, edge) in (("N", "lower"), ("D", "upper")):
        return -0.5
    return -d / 2.0


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _write_text(path: Path, text: str) -> str:
    data = text.encode()
    path.write_bytes(data)
    return hashlib.sha256(data).hexdigest()


def _write_json(path: Path, obj) -> str:
    return _write_text(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _ids_csv(ids) -> str:
    lines = ["E,N"]
    for e, v in zip(ids.grid, ids.grid_values):
        lines.append(f"{_fmt(e)},{_fmt(v)}")
    return "\n".join(lines) + "\n"


def _sample_ensemble(cfg: ExperimentConfig):
    box = LatticeBox(cfg.d, cfg.L)
    return [
        sample_graph(box, cfg.p, kernels.derive_seed(cfg.seed, i))
        for i in range(cfg.realizations)
    ]


def _run_ids(cfg, ensemble, grid, outputs, out, cache):
    for name in cfg.boundary_conditions:
        ids = empirical_ids(ensemble, BoundaryCondition(name), grid=grid, cache=cache)
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


def _report_row(rep) -> str:
    """One report.csv row; the Cheeger fields are empty above the cutoff."""
    h = "" if rep.h_cheeger is None else _fmt(rep.h_cheeger)
    margin = "" if rep.cheeger_margin is None else _fmt(rep.cheeger_margin)
    return (
        f"{rep.n_vertices},{_fmt(rep.e1_neumann)},{_fmt(rep.e1_pseudo_dirichlet)},"
        f"{_fmt(rep.e1_dirichlet)},{h},{margin},{_fmt(rep.crude_margin)},"
        f"{_fmt(rep.fk_ratio)}"
    )


def _run_verify(cfg, ensemble, grid, outputs, out, cache):
    rows = {}  # shape id -> report.csv row, for shapes with a report
    violations = dict.fromkeys(VIOLATION_KINDS, 0)
    fk_min = None
    for sid, (c, m) in enumerate(zip(ensemble.shapes, ensemble.counts.tolist())):
        counts, rep = check_shape(c, grid, cluster_spectra(c, cache))
        for kind, k in counts.items():
            violations[kind] += m * k
        if rep is None:
            continue
        fk_min = rep.fk_ratio if fk_min is None else min(fk_min, rep.fk_ratio)
        rows[sid] = _report_row(rep)
    lines = ["size,e1_N,e1_Dt,e1_D,h_ch,cheeger_margin,crude_margin,fk_ratio"]
    lines += [rows[s] for s in ensemble.order.tolist() if s in rows]
    outputs["report.csv"] = _write_text(out / "report.csv", "\n".join(lines) + "\n")
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
        ids_by_bc = {
            name: empirical_ids(ensemble, BoundaryCondition(name), grid=grid, cache=cache)
            for name in {n for n, _ in jobs}
        }
    unfitted = {}
    for name, edge in jobs:
        stem = f"tail_{name}_{edge}"
        try:
            if cfg.tail_mode == "analytic":
                fit = analytic_tail_fit(cfg.p, BoundaryCondition(name), window, edge=edge)
            else:
                fit = fit_tail(ids_by_bc[name], edge, window)
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
    cache = {}  # (bc, cluster shape) -> spectrum, shared by every stage

    manifest = {"config": {**cfg.to_dict(), "task": task}, "outputs": outputs,
                "status": "ok"}
    try:
        grid = default_grid(cfg.d, cfg.grid_points, cfg.grid_refine)
        needs_graphs = task in ("ids", "verify", "all") or (
            task == "tails" and cfg.tail_mode == "mc"
        )
        graphs = _sample_ensemble(cfg) if needs_graphs else []
        if cfg.emit_graph:
            for i, g in enumerate(graphs):
                fname = f"graph_r{i:04d}.json"
                outputs[fname] = _write_json(out / fname, graph_to_json_dict(g))
        ensemble = ShapeEnsemble(graphs) if graphs else None
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
