"""tools/fingerprint.py, the record that two checkouts give the same bits, runs here."""

import importlib.util
from pathlib import Path

from walkers_return import verify

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("fingerprint", ROOT / "tools" / "fingerprint.py")
fingerprint = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(fingerprint)


def test_fingerprint_covers_every_residual_and_request(tmp_path):
    residuals = fingerprint.residuals(1)
    assert sorted(residuals) == sorted(verify.CHECKS) and len(residuals) == 31
    assert all(float.fromhex(value) <= verify.CHECKS[name][2] for name, value in residuals.items())
    digests = fingerprint.request_digests("long-horizon", 1, tmp_path)
    assert len(digests) == 5
    assert all(status == 0 and len(digest) == 64 for status, digest, _ in digests)
    assert [label for _, _, label in digests] == ["return qw", "return crw", "dist qw", "dist hadamard", "dist crw"]
    assert len(list(tmp_path.iterdir())) == 5
