"""Run one snaklat CLI study in this fresh interpreter and report its costs.

    python3 child.py <src_dir> <command> <config> <out_dir> <mode>

``mode`` is ``setup`` (import and load the config, then time the
calibration kernel), ``study`` (the same, then run the study while the
kernel is sampled every ``SAMPLE_PERIOD_S``) or ``trace`` (run the study
with the span recorder installed, no calibration).  The result is written
to ``<out_dir>/child.json``:

* ``ready``: ``time.monotonic()`` once the package is imported and the
  config loaded; the parent subtracts its spawn time from it;
* ``wall_s``: time from the call into ``snaklat.cli.main`` to its return,
  kernel samples included;
* ``rc``: the CLI exit code;
* ``cal_s``: times of the calibration kernel run right after set-up;
* ``study_cal_s``: times of the kernel samples taken during the study;
* ``peak_rss_kb``: peak resident set size of this process;
* ``env``: Python, numpy, scipy and BLAS versions.
"""

import json
import os
import resource
import sys
import time

SAMPLE_PERIOD_S = 0.5   # the kernel's ~13 ms every 0.5 s take ~3% of a study


def main():
    src, command, config, out_dir, mode = sys.argv[1:6]
    sys.path.insert(0, src)
    from snaklat import cli

    here = os.path.realpath(cli.__file__)
    if not here.startswith(os.path.realpath(src) + os.sep):
        sys.exit(f"imported snaklat from {here}, not from {src}")
    cli.load_config(config, command)
    result = {"ready": time.monotonic(), "cal_s": [], "study_cal_s": []}
    argv = [command, "--config", config, "--out", out_dir]

    if mode == "trace":
        import spans
        tracer = spans.install(run_id=os.path.basename(out_dir))
        t0 = time.perf_counter()
        result["rc"] = cli.main(argv)
        result["wall_s"] = time.perf_counter() - t0
        tracer.dump(os.path.join(out_dir, "spans.json"))
    else:
        from calibrate import Sampler, calibrate
        result["cal_s"] = calibrate()
        if mode == "study":
            with Sampler(SAMPLE_PERIOD_S) as sampler:
                t0 = time.perf_counter()
                result["rc"] = cli.main(argv)
                result["wall_s"] = time.perf_counter() - t0
            result["study_cal_s"] = sampler.times

    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result["env"] = _env()
    with open(os.path.join(out_dir, "child.json"), "w") as fh:
        json.dump(result, fh)


def _env():
    import numpy
    import scipy

    blas = "unknown"
    try:
        info = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{info.get('name')} {info.get('version')}"
    except (TypeError, KeyError):
        pass
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas}


if __name__ == "__main__":
    main()
