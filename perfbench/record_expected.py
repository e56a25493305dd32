"""Re-record ``expected.json``: the reference outputs the benchmark checks.

    python3 perfbench/record_expected.py

Records, for both problem sizes, the digest of a store-less serial
``sweep_grid`` of the ``cold_sweep`` grid and the digests of the
``reproduce`` artifacts of a serial ``python -m repro run`` (minus their
run time and worker count), plus Fig. 7's ExTensor-OB vs ExTensor-N geomean speedup.
That speedup is a simulated number from an unvalidated model.  Re-record
only for a change that is meant to alter the model's outputs.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

from common import EXPECTED, OUT, prepare_environment


def main() -> int:
    prepare_environment()
    from workloads import SIZES, ColdSweep, Reproduce, artifact_digests, \
        fig7_geomean

    recorded = {"cold_sweep": {}, "reproduce": {}}
    for size in SIZES.values():
        workdir = OUT / f"record-{size.suite}"
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        try:
            sweep = ColdSweep(size, 0, workdir)
            sweep.reset()
            digest, _ = sweep.output_of(sweep.op(workers=1))
            recorded["cold_sweep"][size.suite] = {"sweep_sha256": digest}

            reproduce = Reproduce(size, 0, workdir)
            reproduce.reset()
            subprocess.run([sys.executable, "-m", "repro",
                            *reproduce.argv(reproduce.out_dir, 1)],
                           check=True, cwd=workdir,
                           stdout=subprocess.DEVNULL)
            recorded["reproduce"][size.suite] = {
                "artifacts": artifact_digests(reproduce.out_dir,
                                              size.experiments),
                "fig7_ob_vs_n_geomean": repr(fig7_geomean(
                    reproduce.out_dir)),
            }
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    EXPECTED.write_text(json.dumps(recorded, indent=2, sort_keys=True) + "\n")
    print(f"wrote {EXPECTED}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
