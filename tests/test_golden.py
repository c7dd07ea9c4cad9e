"""Golden outputs: the JSON bytes of fixed commands are pinned by sha256.

A change that is meant to keep the results (a speed-up, a refactor) must
keep these hashes; a change that alters results on purpose updates them
and says why.
"""
import hashlib

import pytest

from rootsplit import cli

GOLDEN = {
    ("classify", "--max-rank", "3", "--include-products"):
        "0fd1b9b6f765de12e38baf7cdbe6106372bfda6290b3a1e9b237dc76925578c2",
    ("classify", "A8", "wolf"):
        "d8d0d5242b6aee1b5cc0d45a28a5dc4a42b7c8603c947a8cc1b9cb1c37791973",
    ("classify", "E6", "wolf"):
        "78264aa5de567562df708e9e8d779c99bfa29308a4ff65c593083e306233e152",
}


@pytest.mark.parametrize("argv", sorted(GOLDEN), ids=" ".join)
def test_json_output_hash(argv, tmp_path):
    out = tmp_path / "out.json"
    assert cli.main([*argv, "--output", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN[argv]
