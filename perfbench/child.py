"""One fresh benchmark process: import cknlab, run one workload pass, report.

``run.py`` spawns this script once per sample, with ``PYTHONPATH`` pointing
at the checkout's ``src``; its set-up time is the time from that spawn until
``import cknlab`` below has returned.  ``--probe`` stops right there, which
is how set-up is sampled several times per run.  Otherwise the workload's
operations run in ``--dir`` through ``cknlab.cli_io.run`` and a JSON result
(operation outcomes, and with ``--trace`` every span and counter) is written
to ``--result``.
"""

import sys
import time


def main(argv, t_imported: float) -> int:
    import argparse
    import json
    import os
    import resource
    from dataclasses import asdict

    import cknlab
    from cknlab import cli_io

    import tracer as tracer_mod
    import workloads

    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--dir")
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--probe", action="store_true")
    args = parser.parse_args(argv)

    result = {"t_imported": t_imported, "cknlab_file": cknlab.__file__}
    if not args.probe:
        tracer = None
        if args.trace:
            tracer = tracer_mod.Tracer()
            result["missing_layers"] = tracer_mod.install(tracer)

        def cpu_seconds() -> float:
            own = resource.getrusage(resource.RUSAGE_SELF)
            kids = resource.getrusage(resource.RUSAGE_CHILDREN)
            return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime

        def on_start(op) -> None:
            if tracer is not None:
                tracer.op = op.name

        os.chdir(args.dir)
        outcomes = workloads.run_ops(
            workloads.ops(args.workload, args.seed), cli_io.run,
            time.perf_counter, cpu_seconds, on_start)
        result["ops"] = [asdict(o) for o in outcomes]
        if tracer is not None:
            result["spans"] = tracer.span_records()
            result["counts"] = tracer.counts
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    import cknlab  # noqa: F401  (the set-up a CLI user pays on every command)

    sys.exit(main(sys.argv[1:], time.monotonic()))
