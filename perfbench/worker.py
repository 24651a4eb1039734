"""One benchmark process: set up the program, then serve requests.

Run by run.py in a fresh interpreter whose BLAS/OpenMP pools are pinned
to one thread. It imports the program, loads the configuration and
prints "ready" (the end of set-up); with --setup-only it stops there.
Otherwise it acts as a single closed-loop client of
bessplan.pipeline.main: the next request starts when the previous one
returns. It stops after --requests requests, or once the requests have
taken --seconds of wall time, and writes a JSON record of the requests,
its peak resident memory and, with --trace 1, the layer spans and
metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback


def request_seed(seed, index):
    """Master seed of request `index` in a run with seed `seed`."""
    return (seed % 1_000_000) * 1000 + index


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--config", required=True)
    ap.add_argument("--command", default="run")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--requests", type=int, default=0)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--outdir")
    ap.add_argument("--result")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    sys.path.insert(0, os.path.join(args.root, "src"))
    from bessplan import pipeline
    pipeline.load_config(args.config)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    tracer = None
    if args.trace:
        from layertrace import REQUEST_SPAN, Tracer
        tracer = Tracer()
        tracer.install()

    requests = []
    busy = 0.0
    while (len(requests) < args.requests if args.requests
           else busy < args.seconds):
        index = len(requests)
        seed = request_seed(args.seed, index)
        out = os.path.join(args.outdir, f"req{index}")
        cli = [args.command, "--config", args.config, "--seed", str(seed),
               "--out", out]
        error = None
        code = None
        t0 = time.perf_counter()
        try:
            if tracer is None:
                code = pipeline.main(cli)
            else:
                tracer.request = index
                code = tracer.call(REQUEST_SPAN, pipeline.main, None,
                                   (cli,), {})
        except Exception:
            error = traceback.format_exc()
        dt = time.perf_counter() - t0
        busy += dt
        requests.append({"index": index, "seed": seed, "outdir": out,
                         "seconds": dt, "exit_code": code, "error": error})

    import numpy
    import scipy
    record = {
        "requests": requests,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "versions": {"python": sys.version.split()[0],
                     "numpy": numpy.__version__, "scipy": scipy.__version__},
    }
    if tracer is not None:
        tracer.uninstall()
        record["spans"] = tracer.span_records()
        record["layer_metrics"] = tracer.metrics()
    with open(args.result, "w") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
