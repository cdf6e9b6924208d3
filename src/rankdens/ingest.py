"""Ratings-file ingestion, subset selection, and seeded splits."""

from __future__ import annotations

import codecs
import math
from dataclasses import dataclass, replace
from types import SimpleNamespace
from typing import Optional, Sequence

import numpy as np

from .estimator import GroupedRankings, _grouped
from .rankings import ItemUniverse, TiedRanking
from .recommend import holdout_split


class IngestError(ValueError):
    pass


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
            raise IngestError(f"bad csv format spec {spec!r}")
        delim = parts[1] or ","
        cols = tuple(parts[2].split(","))
        for name in ("user", "item", "rating"):
            if name not in cols:
                raise IngestError(f"format lacks a {name!r} column")
        lo, _, hi = parts[3].partition("-")
        if not (lo.isdecimal() and hi.isdecimal() and int(lo) <= int(hi)):
            raise IngestError(f"rating scale {parts[3]!r} is not <min>-<max> in integers")
        if parts[4:] not in ([], ["header"]):
            raise IngestError(f"csv format spec {spec!r}: only 'header' may follow the scale")
        return FormatDescriptor(delim, cols, len(parts) == 5, (int(lo), int(hi)))
    raise IngestError(f"unknown ratings format {spec!r}")


@dataclass
class RatingsTable:
    """(m, 3) int64 (user, item, level) rows sorted by (user, item); the last line wins."""

    ratings: np.ndarray
    malformed: int = 0
    duplicates: int = 0


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


def _plain_rows(text: bytes, code: int, cols) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read the plain lines of ``text``, whole lines each ending in a \n,
    whose delimiter is the byte ``code``. A plain line holds only digits
    and delimiters, has enough fields, no empty field and no field of
    ``cols`` over ``_DIGITS`` digits, so ``_parse_line`` reads it as
    digit arithmetic does. Returns (lines, 3) int64 rows, filled on plain
    lines only, the plain-line mask and each line's end offset."""
    b = np.frombuffer(_LEAD + text, np.uint8)
    newline = b == 10
    stop = newline | (b == code)
    digit = b - np.uint8(48)
    bad = (digit > 9) ^ stop  # neither digit nor delimiter nor \n
    bad[1:] |= stop[1:] & stop[:-1]  # the end of an empty field
    digit *= ~stop  # so a number may read the stop before it as a leading zero
    ends = np.flatnonzero(stop)  # each field's end, after line 0's
    last = np.flatnonzero(newline[ends])  # each line's last field
    plain = np.diff(last) > max(cols)
    if bad.any():
        plain[np.searchsorted(ends[last], np.flatnonzero(bad)) - 1] = False
    rows = np.zeros((len(plain), 3), np.int64)
    lines = np.flatnonzero(plain)
    for j, col in enumerate(cols):
        field = last[lines] + col  # field col of a line runs from ends[field] to ends[field + 1]
        before, end = ends[field], ends[field + 1]
        fits = end - before <= _DIGITS + 1
        if not fits.all():
            plain[lines[~fits]] = False
            lines, before, end = lines[fits], before[fits], end[fits]
        value = np.zeros(len(lines), np.int64)
        for back in range(int((end - before).max(initial=1)) - 1, 0, -1):  # Horner
            value = value * 10 + digit[np.maximum(end - back, before)]
        rows[lines, j] = value
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
    return (rows if ok.all() else rows[ok]), malformed


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
    object) is updated with the file's bytes, so the file is read once."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise IngestError(f"cannot read {path}: {exc}") from exc
    if digest is not None:
        digest.update(data)
    rows, malformed = _parse_bytes(data, fmt)
    del data  # free the file's bytes before the sort
    total = len(rows) + malformed
    if total and malformed / total > MALFORMED_CAP:
        raise IngestError(f"{malformed}/{total} malformed lines exceeds cap {MALFORMED_CAP}")
    if not len(rows):
        raise IngestError(f"no usable ratings in {path}")
    order, last = _sorted_rows(rows[:, 0], rows[:, 1])  # a pair's last line ends its run
    return RatingsTable(rows[order[last]], malformed, len(rows) - int(last.sum()))


def _sorted_rows(*columns: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A stable sort of rows by int64 ``columns``, the primary first: the
    order, and a mask over the sorted rows of each last row of a run equal
    in every column. The sort key is one int64, the columns' offsets from
    their minima in mixed radix, unless their spans overflow it."""
    spans = [int(c.max()) - int(c.min()) + 1 for c in columns]
    if math.prod(spans) < 2**63:
        key = 0
        for col, span in zip(columns, spans):
            key = key * span + (col - col.min())
        order = np.argsort(key, kind="stable")
        key = key[order]
        return order, np.r_[key[1:] != key[:-1], True]
    order = np.lexsort(columns[::-1])
    differs = np.zeros(len(order) - 1, bool)
    for col in columns:
        col = col[order]
        differs |= col[1:] != col[:-1]
    return order, np.r_[differs, True]


def _by_count(ids: np.ndarray) -> list[int]:
    """Distinct ids, most frequent first, then by id."""
    ids, counts = np.unique(ids, return_counts=True)
    return ids[np.lexsort((ids, -counts))].tolist()


def select_items(table: RatingsTable, top_n: int) -> list[int]:
    """The top_n most rated item ids; count ties break by ascending id."""
    ranked = _by_count(table.ratings[:, 1])
    if top_n > len(ranked):
        raise IngestError(f"only {len(ranked)} distinct items available")
    return ranked[:top_n]


def select_users(
    table: RatingsTable, items: Sequence[int], top_m: Optional[int] = None
) -> list[int]:
    """Users ranked by how many of the selected items they rated."""
    users, rated = table.ratings[:, 0], table.ratings[:, 1]
    return _by_count(users[np.isin(rated, items)])[:top_m]


def group_ratings(
    table: RatingsTable,
    items: Sequence[int],
    users: Optional[Sequence[int]] = None,
) -> GroupedRankings:
    """Per-user tied rankings over the selected item universe, as one
    grouped record.

    One group per occupied rating level, most stars first; items outside
    the selection are dropped; users with no surviving rating are skipped.
    Users come in ascending id order.
    """
    universe = ItemUniverse(len(items), tuple(str(i) for i in items))
    user, item, level = table.ratings.T
    keep = np.isin(item, items) & (users is None or np.isin(user, users))
    if not keep.any():
        none, zero = np.zeros(0, np.int64), np.zeros(1, np.int64)
        return GroupedRankings(universe, none, none, zero, zero, none)
    user, item, level = user[keep], item[keep], level[keep]
    index = np.argsort(items)[np.searchsorted(np.sort(items), item)]
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
