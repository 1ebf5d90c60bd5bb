"""The result records are slotted dataclasses: no instance __dict__, and they
still copy and pickle."""

import copy
import dataclasses
import pickle

import pytest

from cycenum import (
    WeightEnumerator,
    cosets_full,
    icq_membership,
    irreducible_cyclic_code,
    order_d_character_sums,
    run_pipeline_trials,
    weight_spectrum_mceliece,
)

RECORDS = {
    "CodeSpec": lambda: irreducible_cyclic_code(2, 4, 3),
    "WeightSpectrum": lambda: weight_spectrum_mceliece(irreducible_cyclic_code(2, 4, 3)),
    "WeightEnumerator": lambda: WeightEnumerator(
        weight_spectrum_mceliece(irreducible_cyclic_code(2, 4, 3))),
    "PipelineReport": lambda: run_pipeline_trials(2, 4, 3, 0.125, [7])[0],
    "MembershipReport": lambda: icq_membership(2, 4, 3, 0.1),
    "CosetPartition": lambda: cosets_full(15, 2),
    "Coset": lambda: cosets_full(15, 2).cosets[1],
    "GaussSumValue": lambda: order_d_character_sums(irreducible_cyclic_code(2, 4, 3))[0],
}
FROZEN = {"CosetPartition", "Coset", "GaussSumValue"}


def _doc(record):
    # WeightEnumerator is the one record without to_dict: its state is its spectrum
    return (record.spectrum if isinstance(record, WeightEnumerator) else record).to_dict()


@pytest.mark.parametrize("name", RECORDS)
def test_records_are_slotted_and_still_copy_and_pickle(name):
    record = RECORDS[name]()
    assert type(record).__name__ == name
    assert not hasattr(record, "__dict__")
    # slots leave no room for a new name; a frozen slotted class refuses it
    # with TypeError on some Pythons, as its __setattr__ names the class
    # that dataclass replaced
    with pytest.raises((AttributeError, TypeError)):
        record.unlisted = 1
    first = dataclasses.fields(record)[0].name
    if name in FROZEN:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(record, first, getattr(record, first))
    else:
        setattr(record, first, getattr(record, first))
    for clone in (copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(clone) is type(record) and clone is not record
        assert _doc(clone) == _doc(record)
