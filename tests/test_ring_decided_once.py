"""A modulus is factored into its ring Z/q^n once, where a `Rep` or a `Mat`
is made (`exactalg.validate_modulus`), and read back from the stored `q`
and `precision` everywhere else: no module but `exactalg` names
`factor_prime_power`.  `exactalg.split_prime_power` is the package's one
trial division, and only `factor_prime_power` and `lfunc.is_prime` call it."""

import ast
from pathlib import Path

import asaikit

SRC = Path(asaikit.__file__).parent


def test_only_exactalg_factors_a_modulus():
    users = sorted(p.name for p in SRC.glob("*.py") if "factor_prime_power" in p.read_text())
    assert users == ["exactalg.py"]


def test_only_factor_prime_power_and_is_prime_trial_divide():
    # the coefficient tables sieve their primes; nothing else splits an n
    callers = set()
    for path in SRC.glob("*.py"):
        for fn in ast.walk(ast.parse(path.read_text())):
            if isinstance(fn, ast.FunctionDef):
                for node in ast.walk(fn):
                    if isinstance(node, ast.Call) and "split_prime_power" in (
                            getattr(node.func, "id", None), getattr(node.func, "attr", None)):
                        callers.add(fn.name)
    assert callers == {"factor_prime_power", "is_prime"}
