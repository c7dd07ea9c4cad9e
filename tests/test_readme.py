"""The README's library tour runs as written, and its comments hold."""
import re
from fractions import Fraction
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_tour_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    ns = {}
    exec(compile(blocks[0], str(README), "exec"), ns)
    assert ns["theta"] == (1, 1, 0)
    assert len(ns["w"].weights) == 12
    cert = ns["certs"][0]
    assert (cert.scale, cert.beta) == (2, (1, -1, 1))  # (1/2, -1/2, 1/2)
    report = ns["check_constraints"](ns["b3"], cert)
    assert report.beta_norm2 == Fraction(3, 4)
    assert set(report.pairings) == {Fraction(1, 4)}
