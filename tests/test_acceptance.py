"""Acceptance criteria: one test per entry of the `logmonoid.selftest`
registry, at p = 5.

The checks live only in the registry, which `logmonoid selftest` runs too.
Each test prints its result line; run with
`pytest tests/test_acceptance.py -v -s` to see them.
"""

from logmonoid import selftest as st

PRIME = 5


def _criterion_test(name):
    def test():
        ok, detail = st.CHECKS[name](PRIME)
        print(f"[criterion {name[:2]}] {'PASS' if ok else 'FAIL'} {detail}")
        assert ok, detail

    test.__doc__ = st.CHECKS[name].__doc__
    return test


# one test id per criterion: test_criterion_01_semi_saturatedness, ...
for _name in st.CHECKS:
    globals()[f"test_criterion_{_name}"] = _criterion_test(_name)
