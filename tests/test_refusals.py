"""A refusal quotes a caller's value briefly, however long or large the value is."""

import json
import subprocess
import sys

import pytest

from starpcg import (
    Certificate,
    CertificateError,
    GridShape,
    SearchConfig,
    check_certificate,
    cycle_witness,
    induced_subgraph,
    make_cycle,
    search_min_k,
)
from starpcg.cli import EXIT_USAGE

C5 = make_cycle(5)
W = (0, 3, 1, 4, 2)
# 4,001 digits: Python 3.11 reads and prints it, but will not print its square
D_TEXT = "1" + "0" * 4000
# 5,001 digits, too many for Python 3.11 to read from text
E, E_TEXT = 10**5000, "1" + "0" * 5000
# Python 3.10 has no digit limit (nor has 3.11 with PYTHONINTMAXSTRDIGITS=0):
# int() reads E, and the refusals come from the size checks
DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)() != 0


def cert(kind="interleaving", x=0, vs=(1, 4), us=(2,)):
    return Certificate(kind, x, vs, us, 1)


LIBRARY = {
    "search-mode": lambda: search_min_k(C5, SearchConfig(mode="x" * 10**6)),
    "certificate-vs": lambda: check_certificate(cert(vs="a" * 10**6, us=()), C5, W),
    "certificate-kind": lambda: check_certificate(cert(kind="z" * 10**6), C5, W),
    "certificate-pivot": lambda: check_certificate(cert(x=E), C5, W),
    "certificate-vs-entry": lambda: check_certificate(cert(vs=(1, E)), C5, W),
    "certificate-us-entry": lambda: check_certificate(cert(us=(E,)), C5, W),
    "certificate-weights": lambda: check_certificate(cert(), C5, (0, 10**4400, 1, 4, 2)),
    "induced-subgraph": lambda: induced_subgraph(C5, [E]),
    "flat-id-huge": lambda: GridShape((3, 3)).flat_id((E, 0)),
    "coord-of-huge": lambda: GridShape((3, 3)).coord_of(E),
    "flat-id-long": lambda: GridShape((3, 3)).flat_id(tuple(range(10**5))),
}

# argv, and what the refusal of a number past the digit limit must say (None: no such number)
CLI = {
    "generate-cycle": (["generate", "cycle", E_TEXT], "has too many digits"),
    "generate-grid": (["generate", "grid", D_TEXT, D_TEXT], None),
    "generate-grid-many": (["generate", "grid", *["2"] * 10**5], None),
    "witness-grid": (["witness", "grid", "3", D_TEXT], None),
    "mink-grid": (["mink", "grid", D_TEXT, "3"], None),
    "verify-huge-n": (["verify", "{dir}/big.json", "{dir}/wit.json"], None),
    "obstruct-k": (["obstruct", "{dir}/c5.json", "{dir}/w.json", E_TEXT], "has too many digits"),
    "mink-max-weight": (["mink", "cycle", "5", "--max-weight", E_TEXT], "has too many digits"),
}
# without a digit limit obstruct reads k = E, and no certificate exists for k past n
NEEDS_DIGIT_LIMIT = {"obstruct-k"}


def assert_brief(message):
    assert len(message) < 300, message[:300]
    assert "set_int_max_str_digits" not in message


@pytest.mark.parametrize("name", [*LIBRARY, *CLI])
def test_refusal_is_brief(name, tmp_path):
    if name in LIBRARY:
        error = CertificateError if name.startswith("certificate") else ValueError
        with pytest.raises(ValueError) as exc:
            LIBRARY[name]()
        assert type(exc.value) is error, repr(exc.value)[:300]
        assert_brief(str(exc.value))
        return
    if name in NEEDS_DIGIT_LIMIT and not DIGIT_LIMIT:
        pytest.skip("no int digit limit in force")
    argv, past_limit = CLI[name]
    (tmp_path / "big.json").write_text(f'{{"n": {D_TEXT}, "edges": []}}')
    (tmp_path / "wit.json").write_text(json.dumps(cycle_witness(5).to_dict()))
    (tmp_path / "c5.json").write_text(json.dumps(C5.to_dict()))
    (tmp_path / "w.json").write_text(json.dumps(W))
    proc = subprocess.run(
        [sys.executable, "-m", "starpcg", *(arg.format(dir=tmp_path) for arg in argv)],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == EXIT_USAGE and proc.stdout == "", proc.stderr[:300]
    assert "Traceback" not in proc.stderr
    assert_brief(proc.stderr)
    if past_limit:
        # past the digit limit the number is too long to read; without one it is too large
        assert (past_limit if DIGIT_LIMIT else "or more") in proc.stderr, proc.stderr
