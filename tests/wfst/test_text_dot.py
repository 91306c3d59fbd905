"""Tests for OpenFst symbol-table I/O."""

import io

import pytest

from repro.wfst import SymbolTable
from repro.wfst.text_format import read_symbol_table, write_symbol_table


class TestTextFormat:
    def test_symbol_table_round_trip(self):
        table = SymbolTable("words")
        table.add("a")
        table.add("b")
        buffer = io.StringIO()
        write_symbol_table(table, buffer)
        buffer.seek(0)
        restored = read_symbol_table(buffer)
        assert restored.id_of("a") == table.id_of("a")
        assert restored.id_of("b") == table.id_of("b")
        assert len(restored) == len(table)

    def test_sparse_symbol_ids_rejected(self):
        with pytest.raises(ValueError):
            read_symbol_table(io.StringIO("<eps>\t0\nword\t5\n"))

    def test_hash_prefixed_symbols_round_trip(self):
        """#phi / #0-style symbols are entries, not comments; dropping
        them mid-table used to leave an id hole on reload."""
        table = SymbolTable("words")
        table.add("a")
        table.add("#phi")
        table.add("b")
        buffer = io.StringIO()
        write_symbol_table(table, buffer)
        buffer.seek(0)
        restored = read_symbol_table(buffer)
        assert restored.id_of("#phi") == table.id_of("#phi")
        assert restored.id_of("b") == table.id_of("b")
        assert len(restored) == len(table)
