"""Print one JSON object that fingerprints the outputs of this checkout's src/.

Usage, from anywhere:

    python3 tools/fingerprint.py > fingerprint.json

The object holds
* "numpy": numpy's version, since the bits depend on its BLAS;
* "residuals": the float.hex of every `verify` residual at each seed of
  VERIFY_SEEDS, by seed and check name;
* "requests": for every `long-horizon` and `z-scan` request that
  bench/workloads.py builds at each seed of REQUEST_SEEDS, run in-process
  in order, its exit code, the sha256 of its stdout followed by its
  --out bytes, and its label "<command> <model>" (say "genfunc qw"), by
  workload and seed.

Run it in two checkouts and diff the outputs: equal JSON means that every
residual kept its bits and every request its exit code and bytes.  It has
no options, reads bench/ only for the request lists, and writes nothing
into the checkout: --out files go to a temporary directory, and no
bytecode is cached.
"""

from __future__ import annotations

import sys

if __name__ == "__main__":
    sys.dont_write_bytecode = True

import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import numpy as np  # noqa: E402

import walkers_return.cli  # noqa: E402
import walkers_return.verify  # noqa: E402
import workloads  # noqa: E402

if (ROOT / "src").resolve() not in Path(walkers_return.__file__).resolve().parents:
    raise ImportError(f"walkers_return was imported from {walkers_return.__file__}, not {ROOT / 'src'}")

VERIFY_SEEDS = (walkers_return.verify.DEFAULT_SEED, 1, 2, 3, 7)
REQUEST_SEEDS = (1, 2, 3)
REQUEST_WORKLOADS = ("long-horizon", "z-scan")


def residuals(seed: int) -> dict[str, str]:
    """The float.hex of every `verify all` residual at `seed`, by check name."""
    return {result.name: result.residual.hex() for result in walkers_return.verify.run_suite("all", seed)}


def request_digests(workload: str, seed: int, out_dir: Path) -> list[list]:
    """[exit code, sha256 of stdout + --out bytes, "<command> <model>"] of each
    request of `workload` at `seed`, in order, with the --out files written
    under `out_dir`."""
    digests = []
    for request in workloads.build(workload, seed, out_dir):
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            status = walkers_return.cli.main(list(request.argv))
        data = stdout.getvalue().encode()
        if request.out is not None and request.out.is_file():
            data += request.out.read_bytes()
        digests.append([status, hashlib.sha256(data).hexdigest(), f"{request.command} {request.model}"])
    return digests


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        requests = {
            f"{workload}/{seed}": request_digests(workload, seed, Path(tmp))
            for workload in REQUEST_WORKLOADS
            for seed in REQUEST_SEEDS
        }
    fingerprint = {
        "numpy": np.__version__,
        "residuals": {str(seed): residuals(seed) for seed in VERIFY_SEEDS},
        "requests": requests,
    }
    json.dump(fingerprint, sys.stdout, indent=1, sort_keys=True)
    print()


if __name__ == "__main__":
    main()
