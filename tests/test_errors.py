"""Exception types: the property-check errors share one witness base."""

import pytest

from ufw import errors


@pytest.mark.parametrize("cls", ["NotFIP", "NotUltrafilter", "NotAssociative", "NotCommutative"])
def test_witness_errors_carry_their_witness(cls):
    cls = getattr(errors, cls)
    assert issubclass(cls, errors.WitnessError) and issubclass(cls, errors.UfwError)
    err = cls("bad", (0, 1))
    assert str(err) == "bad" and err.witness == (0, 1)
    assert cls("bad", witness=[2]).witness == [2]
    assert cls("bad").witness is None
