"""Ratings-file ingestion, subset selection, and seeded splits."""

from __future__ import annotations

import codecs
import math
import threading
from dataclasses import dataclass, replace
from functools import cached_property
from types import SimpleNamespace
from typing import Optional, Sequence

import numpy as np

from .estimator import GroupedRankings, _grouped
from .rankings import ItemUniverse, TiedRanking
from .recommend import holdout_split


class IngestError(ValueError):
    pass


class FormatError(IngestError):
    """A format spec that names no readable format: bad input, not bad data."""


@dataclass(frozen=True)
class FormatDescriptor:
    """How to read a ratings file: delimiter, column order, header flag,
    and the rating scale bounds."""

    delimiter: str = "\t"
    columns: tuple[str, ...] = ("user", "item", "rating", "timestamp")
    header: bool = False
    scale: tuple[int, int] = (1, 5)

    def column(self, name: str) -> int:
        try:
            return self.columns.index(name)
        except ValueError:
            raise IngestError(f"format lacks a {name!r} column") from None


FORMATS = {
    "ml100k": FormatDescriptor("\t", ("user", "item", "rating", "timestamp"), False, (1, 5)),
    "ml1m": FormatDescriptor("::", ("user", "item", "rating", "timestamp"), False, (1, 5)),
}


def parse_format(spec: str) -> FormatDescriptor:
    """"ml100k", "ml1m", or "csv:<delim>:<cols>:<min>-<max>[:header]"."""
    if spec in FORMATS:
        return FORMATS[spec]
    if spec.startswith("csv:"):
        parts = spec.split(":")
        if len(parts) < 4:
            raise FormatError(f"bad csv format spec {spec!r}")
        delim = parts[1] or ","
        cols = tuple(parts[2].split(","))
        for name in ("user", "item", "rating"):
            if name not in cols:
                raise FormatError(f"format lacks a {name!r} column")
        lo, _, hi = parts[3].partition("-")
        if not (lo.isdecimal() and hi.isdecimal() and int(lo) <= int(hi)):
            raise FormatError(f"rating scale {parts[3]!r} is not <min>-<max> in integers")
        if parts[4:] not in ([], ["header"]):
            raise FormatError(f"csv format spec {spec!r}: only 'header' may follow the scale")
        return FormatDescriptor(delim, cols, len(parts) == 5, (int(lo), int(hi)))
    raise FormatError(f"unknown ratings format {spec!r}")


@dataclass
class RatingsTable:
    """(m, 3) int64 (user, item, level) rows sorted by (user, item); the last line wins."""

    ratings: np.ndarray
    malformed: int = 0
    duplicates: int = 0

    @cached_property
    def item_codes(self) -> tuple[np.ndarray, np.ndarray]:
        """Each row's item code, and the ascending ids that codes 0, 1, ...
        stand for. When the ids span no more values than the table has rows,
        the code is id − min and every id of the span has one, held by a row
        or not; otherwise the codes number the distinct ids, from a sort."""
        item = self.ratings[:, 1]
        lo, hi = (int(item.min()), int(item.max())) if len(item) else (0, -1)
        if hi - lo < len(item):
            return item - lo, np.arange(lo, hi + 1, dtype=np.int64)
        ids, codes = np.unique(item, return_inverse=True)
        return codes, ids


def _parse_line(line: str, delimiter: str, cols) -> Optional[tuple[int, int, int]]:
    """(user, item, level) of one stripped line, or None when malformed. A
    level written as 4.0 is 4; 3.5 is none; so is a value outside int64."""
    parts = line.split(delimiter)
    try:
        user, item = int(parts[cols[0]]), int(parts[cols[1]])
        try:
            level = int(parts[cols[2]])
        except ValueError:
            rating = float(parts[cols[2]])
            level = int(rating) if rating.is_integer() else None
    except (IndexError, ValueError):
        return None
    if level is None or not all(-(2**63) <= v < 2**63 for v in (user, item, level)):
        return None
    return user, item, level


MALFORMED_CAP = 0.05  # load_ratings' largest tolerated share of malformed lines
_BLOCK = 1 << 17  # bytes parsed at a time; a block runs on to the end of its last line
_DIGITS = 18  # a field of at most 18 digits is below 10**18 < 2**63
_NOT_DELIMITER = b"0123456789\n\r"
_LEAD = b"\n"  # an empty line 0 before the block: each line follows a \n


def _line_end(data: bytes, start: int, has_cr: bool) -> int:
    """The offset just past the first line break (\n, \r\n or a lone \r)
    at or after ``start``, or len(data) when there is none."""
    nl = data.find(b"\n", start)
    if has_cr:
        cr = data.find(b"\r", start, len(data) if nl < 0 else nl)
        if cr >= 0 and cr != nl - 1:
            return cr + 1
    return len(data) if nl < 0 else nl + 1


def _numbers(digit: np.ndarray, before: np.ndarray, end: np.ndarray) -> np.ndarray:
    """The int64 values of the fields that run from the stops at ``before``
    to those at ``end``, by Horner's rule over ``digit``, in which every
    stop reads 0: a field's stop before it is read as a leading zero."""
    value = np.zeros(len(end), np.int64)
    for back in range(int((end - before).max(initial=1)) - 1, 0, -1):
        value *= 10
        value += digit[np.maximum(end - back, before)]
    return value


def _plain_rows(text: bytes, code: int, cols) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read the plain lines of ``text``, whole lines each ending in a \n,
    whose delimiter is the byte ``code``. A plain line holds only digits
    and delimiters, has enough fields, no empty field and no field of
    ``cols`` over ``_DIGITS`` digits, so ``_parse_line`` reads it as
    digit arithmetic does. Returns (lines, 3) int64 rows, filled on plain
    lines only, the plain-line mask and each line's end offset. When every
    line is plain and has the same number of fields w, the block is a grid:
    field c of line i runs from stop i·w + c to the next, so each column is
    read through strided views of the stops, with no per-line bookkeeping."""
    b = np.frombuffer(_LEAD + text, np.uint8)
    newline = b == 10
    stop = newline | (b == code)
    digit = b - np.uint8(48)
    bad = (digit > 9) ^ stop  # neither digit nor delimiter nor \n
    bad[1:] |= stop[1:] & stop[:-1]  # the end of an empty field
    digit *= ~stop  # so a number may read the stop before it as a leading zero
    ends = np.flatnonzero(stop)  # each field's end, after line 0's
    lines = int(np.count_nonzero(newline)) - 1
    w, odd = divmod(len(ends) - 1, lines)
    if not odd and w > max(cols) and not bad.any() and newline[ends[w::w]].all():
        fields = [(ends[c:-1:w], ends[c + 1::w]) for c in cols]
        if all(int((end - before).max()) <= _DIGITS + 1 for before, end in fields):
            rows = np.empty((lines, 3), np.int64)
            for j, (before, end) in enumerate(fields):
                rows[:, j] = _numbers(digit, before, end)
            return rows, np.ones(lines, bool), ends[w::w] - len(_LEAD)
    last = np.flatnonzero(newline[ends])  # each line's last field
    plain = np.diff(last) > max(cols)
    if bad.any():
        plain[np.searchsorted(ends[last], np.flatnonzero(bad)) - 1] = False
    rows = np.zeros((len(plain), 3), np.int64)
    kept = np.flatnonzero(plain)
    for j, col in enumerate(cols):
        field = last[kept] + col  # field col of a line runs from ends[field] to ends[field + 1]
        before, end = ends[field], ends[field + 1]
        fits = end - before <= _DIGITS + 1
        if not fits.all():
            plain[kept[~fits]] = False
            kept, before, end = kept[fits], before[fits], end[fits]
        rows[:, j][kept] = _numbers(digit, before, end)
    return rows, plain, ends[last[1:]] - len(_LEAD)


def _parse_block(block: bytes, delimiter: str, cols, scale) -> tuple[np.ndarray, int]:
    """(user, item, level) rows of the lines of ``block``, each ending in a
    \n, that parse to a level on ``scale``, in line order, and how many
    non-blank lines do not. Plain lines are read by ``_plain_rows``; every
    other line is decoded on its own and read by ``_parse_line``. So is
    every line when the delimiter is not one byte that the byte classes
    tell from digits and line breaks, as ``ml1m``'s ``::`` is not."""
    sep = delimiter.encode()
    if len(sep) != 1 or sep in _NOT_DELIMITER:  # every line goes line by line
        ends = np.flatnonzero(np.frombuffer(block, np.uint8) == 10)
        rows, ok = np.zeros((len(ends), 3), np.int64), np.zeros(len(ends), bool)
    else:
        rows, ok, ends = _plain_rows(block, sep[0], cols)
    starts = np.zeros_like(ends)
    starts[1:] = ends[:-1] + 1
    malformed = 0
    for i in np.flatnonzero(~ok & (ends > starts)).tolist():
        line = block[starts[i]:ends[i]].decode("utf-8", "replace").strip()
        if line:
            row = _parse_line(line, delimiter, cols)
            if row:
                rows[i], ok[i] = row, True
            else:
                malformed += 1
    lo, hi = scale
    on_scale = (lo <= rows[:, 2]) & (rows[:, 2] <= hi)
    malformed += int(np.count_nonzero(ok & ~on_scale))
    ok &= on_scale
    return (rows if ok.all() else np.compress(ok, rows, axis=0)), malformed


def _parse_bytes(data: bytes, fmt: FormatDescriptor) -> tuple[np.ndarray, int]:
    """(user, item, level) rows of the non-blank lines of a ratings file's
    bytes that parse to a level on the format's scale, in file order, and
    how many do not. Line breaks are read as text mode reads them; a
    leading UTF-8 byte-order mark is skipped; the file goes through
    ``_parse_block`` ``_BLOCK`` bytes at a time, cut at line breaks, so
    temporaries stay the size of a block."""
    cols = tuple(fmt.column(c) for c in ("user", "item", "rating"))
    has_cr = b"\r" in data
    pos = len(codecs.BOM_UTF8) if data.startswith(codecs.BOM_UTF8) else 0
    if fmt.header:
        pos = _line_end(data, pos, has_cr)
    parts, malformed = [np.zeros((0, 3), np.int64)], 0
    while pos < len(data):
        end = _line_end(data, pos + _BLOCK - 1, has_cr)
        block = data[pos:end]
        if has_cr:
            block = block.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
        if not block.endswith(b"\n"):
            block += b"\n"
        rows, bad = _parse_block(block, fmt.delimiter, cols, fmt.scale)
        parts.append(rows)
        malformed += bad
        pos = end
    return np.concatenate(parts), malformed


def load_ratings(path, fmt: FormatDescriptor, digest=None) -> RatingsTable:
    """Parse a ratings file; malformed lines, a level off the scale among
    them, are counted and tolerated up to ``MALFORMED_CAP``. A ``digest`` (a hashlib
    object) is updated with the file's bytes on a second thread, beside the
    parse, so the file is read once."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise IngestError(f"cannot read {path}: {exc}") from exc
    hasher = None if digest is None else threading.Thread(target=digest.update, args=(data,))
    if hasher is not None:  # hashlib lets go of the GIL on large buffers
        hasher.start()
    try:
        rows, malformed = _parse_bytes(data, fmt)
    finally:
        if hasher is not None:
            hasher.join()
    del data  # free the file's bytes before the sort
    total = len(rows) + malformed
    if total and malformed / total > MALFORMED_CAP:
        raise IngestError(f"{malformed}/{total} malformed lines exceeds cap {MALFORMED_CAP}")
    if not len(rows):
        raise IngestError(f"no usable ratings in {path}")
    order, last = _sorted_rows(rows[:, 0], rows[:, 1])  # a pair's last line ends its run
    kept = np.take(rows, order[last], axis=0)
    return RatingsTable(kept, malformed, len(rows) - len(kept))


def _sorted_rows(*columns: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A stable sort of rows by int64 ``columns``, the primary first: the
    order, and a mask over the sorted rows of each last row of a run equal
    in every column. The sort key is one int64: the columns' offsets from
    their minima in mixed radix, shifted left past the row number that
    fills its low bits, unless the spans and the row bits overflow it.
    Every packed key is unique, so the default unstable sort of the keys
    gives the stable order."""
    spans = [int(c.max()) - int(c.min()) + 1 for c in columns]
    bits = len(columns[0]).bit_length()
    if math.prod(spans) << bits < 2**63:
        key = 0
        for col, span in zip(columns, spans):
            key = key * span + (col - col.min())
        key <<= bits
        key |= np.arange(len(key))
        key.sort()
        order = key & ((1 << bits) - 1)
        key >>= bits
        return order, np.r_[key[1:] != key[:-1], True]
    order = np.lexsort(columns[::-1])
    differs = np.zeros(len(order) - 1, bool)
    for col in columns:
        col = col[order]
        differs |= col[1:] != col[:-1]
    return order, np.r_[differs, True]


def select_items(table: RatingsTable, top_n: int) -> list[int]:
    """The top_n most rated item ids; count ties break by ascending id."""
    codes, ids = table.item_codes
    counts = np.bincount(codes, minlength=len(ids))
    ranked = np.argsort(-counts, kind="stable")[: np.count_nonzero(counts)]
    if top_n > len(ranked):
        raise IngestError(f"only {len(ranked)} distinct items available")
    return ids[ranked[:top_n]].tolist()


def rated(table: RatingsTable, items: Sequence[int]) -> np.ndarray:
    """The mask of the table's rows whose item is one of ``items``."""
    return (_positions(table, items) >= 0)[table.item_codes[0]]


def _positions(table: RatingsTable, items: Sequence[int]) -> np.ndarray:
    """For each item code of the table, the position of its id in
    ``items``, or −1 when ``items`` lacks it. Only the ids of ``items``, a
    few hundred at most, are searched for; an id the table lacks is skipped."""
    ids = table.item_codes[1]
    items = np.asarray(items, np.int64)
    code = np.searchsorted(ids, items)
    found = code < len(ids)
    found[found] = ids[code[found]] == items[found]
    positions = np.full(len(ids), -1)
    positions[code[found]] = np.flatnonzero(found)
    return positions


def select_users(
    table: RatingsTable, items: Sequence[int], top_m: Optional[int] = None,
    mask: Optional[np.ndarray] = None,
) -> list[int]:
    """Users ranked by how many of the selected items they rated; count ties
    break by ascending id. Reads each user's count as the length of its run
    in the table's user column, which its (user, item) order keeps sorted.
    ``mask`` is ``rated(table, items)``, when the caller has it."""
    users = table.ratings[:, 0][rated(table, items) if mask is None else mask]
    first = np.flatnonzero(np.r_[True, users[1:] != users[:-1]][: len(users)])  # none if empty
    counts = np.diff(np.r_[first, len(users)])
    return users[first][np.argsort(-counts, kind="stable")].tolist()[:top_m]


def group_ratings(
    table: RatingsTable,
    items: Sequence[int],
    users: Optional[Sequence[int]] = None,
    mask: Optional[np.ndarray] = None,
) -> GroupedRankings:
    """Per-user tied rankings over the selected item universe, as one
    grouped record.

    One group per occupied rating level, most stars first; items outside
    the selection are dropped; users with no surviving rating are skipped.
    Users come in ascending id order. ``mask`` is ``rated(table, items)``,
    when the caller has it.
    """
    universe = ItemUniverse(len(items), tuple(str(i) for i in items))
    ratings = table.ratings
    kept = np.flatnonzero(rated(table, items) if mask is None else mask)
    if users is not None:
        kept = kept[np.isin(ratings[kept, 0], users)]
    if not len(kept):
        none, zero = np.zeros(0, np.int64), np.zeros(1, np.int64)
        return GroupedRankings(universe, none, none, zero, zero, none)
    user, _, level = ratings.take(kept, axis=0).T
    index = _positions(table, items)[table.item_codes[0][kept]]
    order, _ = _sorted_rows(user, -level, index)
    user, index, level = user[order], index[order], level[order]
    new_user = np.r_[True, user[1:] != user[:-1]]
    new_group = new_user | np.r_[True, level[1:] != level[:-1]]
    return GroupedRankings(
        universe, user[new_user], index,
        np.flatnonzero(np.r_[new_user, True]), np.flatnonzero(np.r_[new_group, True]),
        level[new_group],
    )


def tied_rankings(grouped: GroupedRankings) -> list[TiedRanking]:
    """The record's rankings as ``TiedRanking``s, in record order."""
    universe, index = grouped.universe, grouped.items.tolist()
    bounds = grouped.group_starts.tolist()
    groups = [tuple(index[a:b]) for a, b in zip(bounds, bounds[1:])]
    labels = None if grouped.levels is None else grouped.levels.tolist()
    firsts = np.searchsorted(grouped.group_starts, grouped.user_starts).tolist()
    return [TiedRanking(universe, tuple(groups[a:b]), labels and tuple(labels[a:b]))
            for a, b in zip(firsts, firsts[1:])]


def build_rankings(
    table: RatingsTable,
    items: Sequence[int],
    users: Optional[Sequence[int]] = None,
) -> tuple[ItemUniverse, list[tuple[int, TiedRanking]]]:
    """``group_ratings`` as (user id, ranking) pairs, by ascending user id."""
    grouped = group_ratings(table, items, users)
    return grouped.universe, list(zip(grouped.users.tolist(), tied_rankings(grouped)))


def split_users(rankings: Sequence[tuple[int, TiedRanking]], seed: int, test_fraction: float,
                holdout_fraction: float = 0.5) -> tuple[list[TiedRanking], SimpleNamespace]:
    """``holdout_split`` of (user id, ranking) pairs: the training rankings,
    and the test users, in ``users``, with their ``user_id`` and ``held_out``
    (item, true level) pairs."""
    if not 0 < test_fraction < 1:
        raise IngestError("test fraction must be in (0, 1)")
    grouped = replace(_grouped([r for _, r in rankings]),
                      users=np.array([uid for uid, _ in rankings]))
    train, holdout = holdout_split(grouped, seed, test_fraction, holdout_fraction)
    held = list(map(tuple, np.column_stack([holdout.items, holdout.levels]).tolist()))
    cuts = np.searchsorted(holdout.owners, np.arange(len(holdout.observed.users) + 1)).tolist()
    return tied_rankings(train), SimpleNamespace(users=tuple(
        SimpleNamespace(user_id=uid, held_out=tuple(held[a:b]))
        for uid, a, b in zip(holdout.observed.users.tolist(), cuts, cuts[1:])))
