from __future__ import annotations

import pytest

from dqeval.taxonomy import (Characteristic, Property, PROPERTY_CHARACTERISTIC,
                             parse_characteristic, parse_property)


def test_exactly_five_characteristics():
    assert [c.value for c in Characteristic] == [
        "Accuracy", "Completeness", "Consistency", "Credibility", "Currentness"]


def test_exactly_fifteen_properties_all_mapped():
    assert len(Property) == 15
    assert set(PROPERTY_CHARACTERISTIC) == set(Property)


def test_property_split_per_characteristic():
    split = {c: [p.value for p in Property if PROPERTY_CHARACTERISTIC[p] is c]
             for c in Characteristic}
    assert split[Characteristic.ACCURACY] == ["EXAC_SINT", "EXAC_SEMAN", "RAN_EXAC"]
    assert split[Characteristic.COMPLETENESS] == [
        "COMP_FICH", "COMP_REG", "COMP_VAL_ESP", "FAL_COMP_FICH"]
    assert split[Characteristic.CONSISTENCY] == [
        "CONS_FORM", "CONS_SEMAN", "INT_REF", "RIES_INCO"]
    assert split[Characteristic.CREDIBILITY] == ["CRED_FUEN", "CRED_VAL_DAT"]
    assert split[Characteristic.CURRENTNESS] == ["CONV_ACT", "FREC_ACT"]


def test_parse_property_roundtrip_and_rejection():
    for p in Property:
        assert parse_property(p.value) is p
    with pytest.raises(ValueError, match="XXXX"):
        parse_property("XXXX")


def test_parse_characteristic_rejects_unknown():
    assert parse_characteristic("Accuracy") is Characteristic.ACCURACY
    with pytest.raises(ValueError):
        parse_characteristic("Velocity")


def test_characteristic_accessor_matches_table():
    assert Property.EXAC_SINT.characteristic is Characteristic.ACCURACY
    assert Property.FAL_COMP_FICH.characteristic is Characteristic.COMPLETENESS
    assert Property.INT_REF.characteristic is Characteristic.CONSISTENCY
    assert Property.CRED_FUEN.characteristic is Characteristic.CREDIBILITY
    assert Property.FREC_ACT.characteristic is Characteristic.CURRENTNESS
