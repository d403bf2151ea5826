"""Set-up of one benchmark workload, timed; also runnable as a fresh process.

Set-up is what a user pays before the first timed operation: importing
gatesafe and loading the config, plus, for ``filter_stream``, building the
nominal and inflated clearance maps the on-board filter reads.

    python3 perfbench/setup_probe.py <workload> <config.yaml> <src-dir>

prints the set-up seconds of a fresh interpreter. The module imports nothing
heavy at top level, so the parent benchmark process can time its own import
of gatesafe the same way.
"""
from __future__ import annotations

import sys
import time


def setup(workload: str, config_path: str):
    """Return (seconds, gatesafe package, Config, maps or None)."""
    t0 = time.perf_counter()
    import gatesafe
    import gatesafe.cli  # the package __init__ leaves the CLI module out

    cfg = gatesafe.config.load_config(config_path)
    maps = None
    if workload == "filter_stream":
        fld = gatesafe.field
        spec = cfg.grid_spec()
        params = cfg.safety_params()
        eps = fld.quantize_inflation(params.dv, spec.resolution)
        nominal = fld.build_field(cfg.gate(), spec, safety_radius=params.R, inflation=eps)
        maps = (nominal, fld.inflate_field(nominal, eps))
    return time.perf_counter() - t0, gatesafe, cfg, maps


if __name__ == "__main__":
    workload_name, cfg_path, src_dir = sys.argv[1:4]
    sys.path.insert(0, src_dir)
    seconds, *_ = setup(workload_name, cfg_path)
    print(repr(seconds))
