"""A modulus is factored into its ring Z/q^n once, where a `Rep` or a `Mat`
is made (`exactalg.validate_modulus`), and read back from the stored `q`
and `precision` everywhere else: no module but `exactalg` names
`factor_prime_power`."""

from pathlib import Path

import asaikit

SRC = Path(asaikit.__file__).parent


def test_only_exactalg_factors_a_modulus():
    users = sorted(p.name for p in SRC.glob("*.py") if "factor_prime_power" in p.read_text())
    assert users == ["exactalg.py"]
