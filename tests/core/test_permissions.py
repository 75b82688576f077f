"""Tests for the permission lattice (§2.1) and RESTRICT legality."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.permissions import (
    Permission,
    Right,
    decode_permission,
    is_strict_subset,
    restriction_targets,
    rights_of,
)

perms = st.sampled_from(list(Permission))


class TestRights:
    def test_read_only_cannot_write(self):
        r = rights_of(Permission.READ_ONLY)
        assert r & Right.READ
        assert not r & Right.WRITE

    def test_read_write_can_both(self):
        r = rights_of(Permission.READ_WRITE)
        assert r & Right.READ and r & Right.WRITE

    def test_execute_is_readable_jumpable(self):
        r = rights_of(Permission.EXECUTE_USER)
        assert r & Right.READ and r & Right.EXECUTE
        assert not r & Right.WRITE
        assert not r & Right.PRIV

    def test_execute_priv_carries_supervisor_bit(self):
        assert rights_of(Permission.EXECUTE_PRIV) & Right.PRIV

    def test_enter_pointers_confer_only_entry(self):
        for p in (Permission.ENTER_USER, Permission.ENTER_PRIV):
            r = rights_of(p)
            assert r & Right.ENTER
            assert not r & (Right.READ | Right.WRITE | Right.MODIFY)

    def test_key_confers_nothing(self):
        assert rights_of(Permission.KEY) == Right.NONE


class TestPredicates:
    def test_is_enter(self):
        assert Permission.ENTER_USER.is_enter
        assert Permission.ENTER_PRIV.is_enter
        assert not Permission.EXECUTE_USER.is_enter

    def test_is_execute(self):
        assert Permission.EXECUTE_USER.is_execute
        assert Permission.EXECUTE_PRIV.is_execute
        assert not Permission.ENTER_USER.is_execute

    def test_is_privileged(self):
        assert Permission.EXECUTE_PRIV.is_privileged
        assert Permission.ENTER_PRIV.is_privileged
        assert not Permission.READ_WRITE.is_privileged


class TestDecode:
    def test_known_codes_decode(self):
        for p in Permission:
            assert decode_permission(int(p)) is p

    @pytest.mark.parametrize("code", [7, 8, 15])
    def test_reserved_codes_raise(self, code):
        with pytest.raises(ValueError):
            decode_permission(code)

    def test_out_of_range_raises(self):
        with pytest.raises(ValueError):
            decode_permission(16)

    def test_every_field_value_is_pinned(self):
        # the whole 4-bit field: seven architectural codes, nine
        # reserved ones, and the exact error text either side of it
        expected = [Permission.READ_ONLY, Permission.READ_WRITE,
                    Permission.EXECUTE_USER, Permission.EXECUTE_PRIV,
                    Permission.ENTER_USER, Permission.ENTER_PRIV,
                    Permission.KEY]
        for code in range(16):
            if code < len(expected):
                assert decode_permission(code) is expected[code]
            else:
                with pytest.raises(ValueError,
                                   match=rf"^reserved permission code: {code}$"):
                    decode_permission(code)
        for code in (-1, 16, 255):
            with pytest.raises(ValueError,
                               match=rf"^permission field out of range: {code}$"):
                decode_permission(code)


class TestRestrictLattice:
    def test_rw_to_ro_is_legal(self):
        assert is_strict_subset(Permission.READ_ONLY, Permission.READ_WRITE)

    def test_ro_to_rw_is_amplification(self):
        assert not is_strict_subset(Permission.READ_WRITE, Permission.READ_ONLY)

    def test_execute_to_read_only_is_legal(self):
        # "Execute pointers are read-only pointers that may be used as
        # targets for jump instructions" — dropping EXECUTE is a restriction.
        assert is_strict_subset(Permission.READ_ONLY, Permission.EXECUTE_USER)

    def test_key_is_bottom(self):
        for p in Permission:
            if p is Permission.KEY:
                continue
            assert is_strict_subset(Permission.KEY, p)

    @given(perms)
    def test_never_subset_of_itself(self, p):
        assert not is_strict_subset(p, p)

    @given(perms, perms, perms)
    def test_transitivity(self, a, b, c):
        if is_strict_subset(a, b) and is_strict_subset(b, c):
            assert is_strict_subset(a, c)

    @given(perms, perms)
    def test_antisymmetry(self, a, b):
        assert not (is_strict_subset(a, b) and is_strict_subset(b, a))

    def test_restriction_targets_of_rw(self):
        targets = restriction_targets(Permission.READ_WRITE)
        assert Permission.READ_ONLY in targets
        assert Permission.KEY in targets
        assert Permission.EXECUTE_USER not in targets  # would add EXECUTE

    def test_restriction_targets_of_key_is_empty(self):
        assert restriction_targets(Permission.KEY) == frozenset()
