"""The fixed characteristic/property taxonomy.

Five inherent quality characteristics, fifteen measurable properties. Every
property belongs to exactly one characteristic; the mapping is closed and not
extensible at runtime (rule documents may only use these names).
"""

from __future__ import annotations

import enum


class Characteristic(enum.Enum):
    ACCURACY = "Accuracy"
    COMPLETENESS = "Completeness"
    CONSISTENCY = "Consistency"
    CREDIBILITY = "Credibility"
    CURRENTNESS = "Currentness"

    def __str__(self) -> str:
        return self.value


class Property(enum.Enum):
    # Accuracy
    EXAC_SINT = "EXAC_SINT"  # Syntactic Accuracy
    EXAC_SEMAN = "EXAC_SEMAN"  # Semantic Accuracy
    RAN_EXAC = "RAN_EXAC"  # Accuracy Range
    # Completeness
    COMP_FICH = "COMP_FICH"  # File Completeness
    COMP_REG = "COMP_REG"  # Record Completeness
    COMP_VAL_ESP = "COMP_VAL_ESP"  # Value Completeness
    FAL_COMP_FICH = "FAL_COMP_FICH"  # False File Completeness
    # Consistency
    CONS_FORM = "CONS_FORM"  # Format Consistency
    CONS_SEMAN = "CONS_SEMAN"  # Semantic Consistency
    INT_REF = "INT_REF"  # Referential Integrity
    RIES_INCO = "RIES_INCO"  # Inconsistency Risk
    # Credibility
    CRED_FUEN = "CRED_FUEN"  # Source Credibility
    CRED_VAL_DAT = "CRED_VAL_DAT"  # Data Values Credibility
    # Currentness
    CONV_ACT = "CONV_ACT"  # Timeliness of Update
    FREC_ACT = "FREC_ACT"  # Update Frequency

    def __str__(self) -> str:
        return self.value

    @property
    def characteristic(self) -> Characteristic:
        return PROPERTY_CHARACTERISTIC[self]


PROPERTY_CHARACTERISTIC: dict[Property, Characteristic] = {
    Property.EXAC_SINT: Characteristic.ACCURACY,
    Property.EXAC_SEMAN: Characteristic.ACCURACY,
    Property.RAN_EXAC: Characteristic.ACCURACY,
    Property.COMP_FICH: Characteristic.COMPLETENESS,
    Property.COMP_REG: Characteristic.COMPLETENESS,
    Property.COMP_VAL_ESP: Characteristic.COMPLETENESS,
    Property.FAL_COMP_FICH: Characteristic.COMPLETENESS,
    Property.CONS_FORM: Characteristic.CONSISTENCY,
    Property.CONS_SEMAN: Characteristic.CONSISTENCY,
    Property.INT_REF: Characteristic.CONSISTENCY,
    Property.RIES_INCO: Characteristic.CONSISTENCY,
    Property.CRED_FUEN: Characteristic.CREDIBILITY,
    Property.CRED_VAL_DAT: Characteristic.CREDIBILITY,
    Property.CONV_ACT: Characteristic.CURRENTNESS,
    Property.FREC_ACT: Characteristic.CURRENTNESS,
}


def parse_characteristic(name: str) -> Characteristic:
    for c in Characteristic:
        if c.value == name:
            return c
    raise ValueError(f"unknown characteristic {name!r}; expected one of "
                     + ", ".join(c.value for c in Characteristic))


def parse_property(acronym: str) -> Property:
    try:
        return Property(acronym)
    except ValueError:
        raise ValueError(f"unknown property acronym {acronym!r}; expected one of "
                         + ", ".join(p.value for p in Property)) from None
