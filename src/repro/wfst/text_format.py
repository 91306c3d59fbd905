"""OpenFst-compatible symbol tables: ``symbol id`` per line.

The persisted recognizer bundle and the shared-memory segment carry
their word and phone tables in this format.
"""

from __future__ import annotations

from typing import Iterable, TextIO

from repro.wfst.fst import SymbolTable


def write_symbol_table(table: SymbolTable, stream: TextIO) -> None:
    """OpenFst symbol-table format: ``symbol<TAB>id`` per line."""
    for label, symbol in table:
        stream.write(f"{symbol}\t{label}\n")


def read_symbol_table(lines: Iterable[str], name: str = "symbols") -> SymbolTable:
    """Parse an OpenFst symbol table; ids must be dense from 0."""
    entries: list[tuple[int, str]] = []
    for raw in lines:
        line = raw.strip()
        # No comment syntax here: "#"-prefixed symbols (#phi, Kaldi's
        # disambiguation #0, #1, ...) are legitimate table entries.
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"bad symbol-table line: {raw!r}")
        entries.append((int(parts[1]), parts[0]))
    entries.sort()
    table = SymbolTable(name)
    for expected, (label, symbol) in enumerate(entries):
        if label != expected:
            raise ValueError(
                f"symbol ids must be dense from 0; missing id {expected}"
            )
        if expected == 0:
            continue  # id 0 is always <eps>, already present
        table.add(symbol)
    return table
