"""The access-record contract the rest of the tree relies on.

A step's bus accesses are :class:`~repro.cpu.signals.MemoryRead` and
:class:`~repro.cpu.signals.MemoryWrite` records: ``(address, value,
size)`` in that order, ``size`` 2 unless given, immutable, equal and
hashed by value, with the keyword repr that bundle and trace dumps
print.  The compiled instructions and the DMA build them positionally,
tests and strategies by keyword, and the monitors read the three
fields by name.
"""

import pytest

from repro.cpu.signals import MemoryRead, MemoryWrite

RECORDS = (MemoryRead, MemoryWrite)


@pytest.mark.parametrize("record", RECORDS, ids=lambda record: record.__name__)
class TestAccessRecords:
    def test_fields_in_order(self, record):
        access = record(512, 1, 1)
        assert (access.address, access.value, access.size) == (512, 1, 1)
        assert record(address=512, value=1, size=1) == access

    def test_size_defaults_to_a_word(self, record):
        assert record(512, 1).size == 2
        assert record(address=512, value=1) == record(512, 1, 2)

    def test_equal_and_hashed_by_value(self, record):
        assert record(512, 1, 2) == record(512, 1, 2)
        assert hash(record(512, 1, 2)) == hash(record(512, 1, 2))
        assert record(512, 1, 2) != record(512, 2, 2)
        assert record(512, 1, 2) != record(514, 1, 2)
        assert record(512, 1, 2) != record(512, 1, 1)
        assert len({record(512, 1), record(512, 1, 2), record(512, 2)}) == 2

    @pytest.mark.parametrize("field", ["address", "value", "size"])
    def test_fields_cannot_be_assigned(self, record, field):
        access = record(512, 1, 2)
        with pytest.raises(AttributeError):
            setattr(access, field, 0)
        assert access == record(512, 1, 2)

    def test_repr(self, record):
        # e.g. MemoryWrite(address=512, value=1, size=2)
        assert repr(record(512, 1)) == "%s(address=512, value=1, size=2)" % record.__name__
