"""One cold perclap process, started by ``run.py``.

    python3 perfbench/child.py <mode> <task> <config> <out> <t_spawn>

``mode`` is ``setup`` (import and parse the config, then exit), ``run``
(one ``perclap.cli.main`` call) or ``trace`` (the same call with the
tracer installed).  ``t_spawn`` is the parent's ``time.monotonic()``
just before the spawn; the monotonic clock is system-wide, so the
difference is the set-up time.  The result is one JSON line on stdout.
"""

import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def environment():
    import numpy
    import scipy

    import perclap

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "perclap": perclap.__version__,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


def main(argv):
    mode, task, config, out, t_spawn = argv
    sys.path.insert(0, str(ROOT / "src"))
    import perclap.cli
    from perclap.config import parse_config

    parse_config(config)
    result = {"setup_s": time.monotonic() - float(t_spawn)}
    if not Path(perclap.cli.__file__).resolve().is_relative_to(ROOT / "src"):
        sys.exit(f"perclap imported from {perclap.cli.__file__}, not from {ROOT / 'src'}")
    if mode != "setup":
        tracer = None
        if mode == "trace":
            from tracer import Tracer

            tracer = Tracer().install()
        t0 = time.perf_counter()
        code = perclap.cli.main([task, "--config", config, "--out", out])
        run_s = time.perf_counter() - t0
        result.update(
            exit=code,
            run_s=run_s,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        )
        if tracer is not None:
            tracer.uninstall()
            result["trace"] = {
                "metrics": tracer.metrics(run_s),
                "absent": tracer.absent,
                "table": tracer.table(),
                "spans": [(name, start - t0, end - t0, parent)
                          for name, start, end, parent in tracer.spans],
            }
    result["env"] = environment()
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])
