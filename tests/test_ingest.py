from collections import Counter, defaultdict

import numpy as np
import pytest

from rankdens import ingest
from rankdens.ingest import (
    FORMATS,
    FormatDescriptor,
    IngestError,
    build_rankings,
    group_ratings,
    load_ratings,
    parse_format,
    select_items,
    select_users,
    split_users,
)


def _write(tmp_path, text, name="ratings.tsv"):
    p = tmp_path / name
    p.write_text(text)
    return p


def test_parse_format_named():
    assert parse_format("ml100k") is FORMATS["ml100k"]
    assert parse_format("ml1m").delimiter == "::"


def test_parse_format_csv_spec():
    fmt = parse_format("csv:;:item,user,rating:1-10:header")
    assert fmt.delimiter == ";"
    assert fmt.column("user") == 1
    assert fmt.scale == (1, 10)
    assert fmt.header
    with pytest.raises(IngestError):
        parse_format("csv:;")
    with pytest.raises(IngestError):
        parse_format("parquet")
    for scale in ("1.5-5", "5-1"):
        with pytest.raises(IngestError):
            parse_format(f"csv:,:user,item,rating:{scale}")
    # only 'header' may follow the scale: a misspelt flag is no silent header=False
    for tail in ("1-5:hdr", "1-5:header:extra", "1-5:"):
        with pytest.raises(IngestError):
            parse_format(f"csv:,:user,item,rating:{tail}")


def test_load_ratings_basic(tmp_path):
    path = _write(tmp_path, "1\t10\t5\t0\n1\t11\t3\t1\n2\t10\t4\t2\n")
    table = load_ratings(path, FORMATS["ml100k"])
    assert table.ratings.tolist() == [[1, 10, 5], [1, 11, 3], [2, 10, 4]]
    assert table.malformed == 0
    assert Counter(table.ratings[:, 1].tolist()) == {10: 2, 11: 1}


def test_load_ratings_last_duplicate_wins(tmp_path):
    path = _write(tmp_path, "1\t10\t5\t0\n1\t10\t2\t9\n")
    table = load_ratings(path, FORMATS["ml100k"])
    assert table.ratings.tolist() == [[1, 10, 2]]
    assert table.duplicates == 1


def test_load_ratings_malformed_tolerated(tmp_path, monkeypatch):
    monkeypatch.setattr(ingest, "MALFORMED_CAP", 0.1)
    lines = ["1\t10\t5\t0"] * 30 + ["garbage line", "1\t11\t9\t0", "1\t12\t3.5\t0",
                                      "1\t13\t4.0\t0"]
    path = _write(tmp_path, "\n".join(lines) + "\n")
    table = load_ratings(path, FORMATS["ml100k"])
    assert table.malformed == 3  # unparseable, out-of-scale and fractional rating
    assert table.ratings.tolist() == [[1, 10, 5], [1, 13, 4]]
    assert table.ratings.dtype == np.int64  # the 4.0 line loads as an int


def test_load_ratings_error_cap(tmp_path, monkeypatch):
    monkeypatch.setattr(ingest, "MALFORMED_CAP", 0.05)
    path = _write(tmp_path, "junk\njunk\n1\t10\t5\t0\n")
    with pytest.raises(IngestError):
        load_ratings(path, FORMATS["ml100k"])
    with pytest.raises(IngestError):
        load_ratings(tmp_path / "missing.tsv", FORMATS["ml100k"])


def test_select_items_and_users(tmp_path):
    text = "1\t10\t5\t0\n1\t11\t4\t0\n2\t10\t3\t0\n2\t12\t2\t0\n3\t10\t1\t0\n"
    table = load_ratings(_write(tmp_path, text), FORMATS["ml100k"])
    assert select_items(table, 2) == [10, 11]  # count, then ascending id
    users = select_users(table, [10, 11], top_m=2)
    assert users == [1, 2]
    with pytest.raises(IngestError):
        select_items(table, 99)


def test_build_rankings_levels(tmp_path):
    text = "5\t10\t4\t0\n5\t11\t4\t0\n5\t12\t2\t0\n6\t12\t3\t0\n7\t99\t5\t0\n"
    table = load_ratings(_write(tmp_path, text), FORMATS["ml100k"])
    universe, rankings = build_rankings(table, [10, 11, 12])
    assert universe.labels == ("10", "11", "12")
    assert [uid for uid, _ in rankings] == [5, 6]  # user 7 rated no kept item
    r5 = rankings[0][1]
    assert r5.groups == ((0, 1), (2,))
    assert r5.level_labels == (4, 2)
    r6 = rankings[1][1]
    assert r6.groups == ((2,),) and r6.level_labels == (3,)


def test_group_ratings_record(tmp_path):
    text = "5\t10\t4\t0\n5\t11\t4\t0\n5\t12\t2\t0\n6\t12\t3\t0\n7\t99\t5\t0\n"
    table = load_ratings(_write(tmp_path, text), FORMATS["ml100k"])
    grouped = group_ratings(table, [12, 10, 11])
    assert grouped.universe.labels == ("12", "10", "11")
    assert grouped.users.tolist() == [5, 6]
    assert grouped.items.tolist() == [1, 2, 0, 0]  # user 5: {10, 11} at 4 stars, then 12
    assert grouped.user_starts.tolist() == [0, 3, 4]
    assert grouped.group_starts.tolist() == [0, 2, 3, 4]
    assert grouped.levels.tolist() == [4, 2, 3]
    empty = group_ratings(table, [10], users=[6, 7])
    assert (len(empty.users), empty.user_starts.tolist(), empty.group_starts.tolist()) == (
        0, [0], [0])


def _lexsort_dedupe(rows):
    """(ratings, duplicates) of file-order rows by a stable two-key lexsort,
    keeping each (user, item) pair's last row."""
    rows = rows[np.lexsort((rows[:, 1], rows[:, 0]))]
    last = np.r_[np.any(rows[1:, :2] != rows[:-1, :2], axis=1), True]
    return rows[last].tolist(), len(rows) - int(last.sum())


@pytest.mark.parametrize("users, items", [
    ([1, 2, 3, 9], [10, 11, 12, 13, 40]),
    ([-7, -3, 0, 5], [-20, -2, 0, 3]),
    ([0, 2**31], [0, 2**31 - 2]),  # the largest spans whose combined key fits
    ([0, 2**32], [0, 2**31]),  # each span fits, their product does not
    ([0, 2**62], [-2**62, 2**62]),  # the item span alone overflows
    ([-2**63, 2**63 - 1], [5, 6]),
], ids=["positive", "negative", "key-fits", "key-overflows", "span-overflows", "int64-ends"])
def test_dedupe_matches_a_lexsort_reference(tmp_path, users, items):
    rng = np.random.default_rng(len(users) * 31 + len(items))
    pairs = [(u, i) for u in users for i in items]
    drawn = [pairs[k] for k in rng.integers(len(pairs), size=60)]  # repeats: duplicates
    rows = np.array([(u, i, int(rng.integers(1, 6))) for u, i in drawn], np.int64)
    text = "".join(f"{u}\t{i}\t{lv}\t0\n" for u, i, lv in rows.tolist())
    table = load_ratings(_write(tmp_path, text), FORMATS["ml100k"])
    ratings, duplicates = _lexsort_dedupe(rows)
    assert table.duplicates == duplicates > 0
    assert table.ratings.tolist() == ratings


def test_split_users_deterministic(ratings_file):
    table = load_ratings(ratings_file, FORMATS["ml100k"])
    items = select_items(table, 10)
    _, rankings = build_rankings(table, items, select_users(table, items, top_m=200))
    train_a, split_a = split_users(rankings, seed=4, test_fraction=0.3)
    train_b, split_b = split_users(rankings, seed=4, test_fraction=0.3)
    assert train_a == train_b
    assert split_a == split_b
    assert len(train_a) + len({u.user_id for u in split_a.users}) <= len(rankings)
    assert len(train_a) == round(len(rankings) * 0.7)
    with pytest.raises(IngestError):
        split_users(rankings, seed=0, test_fraction=1.5)


def test_synthetic_corpus_shape(ratings_file):
    table = load_ratings(ratings_file, FORMATS["ml100k"])
    assert table.duplicates >= 1
    items = select_items(table, 53)
    users = select_users(table, items, top_m=2000)
    assert len(items) == 53 and len(users) == 2000
    universe, rankings = build_rankings(table, items, users)
    assert universe.n == 53
    assert len(rankings) == 2000


def test_id_outside_int64_is_malformed(tmp_path, monkeypatch):
    monkeypatch.setattr(ingest, "MALFORMED_CAP", 0.1)
    lines = ["1\t10\t5\t0"] * 30 + [f"{2**64}\t10\t4\t0", f"1\t{-2**63 - 1}\t4\t0",
                                      f"{-2**63}\t11\t4\t0"]
    table = load_ratings(_write(tmp_path, "\n".join(lines) + "\n"), FORMATS["ml100k"])
    assert table.malformed == 2
    assert table.ratings.tolist() == [[-2**63, 11, 4], [1, 10, 5]]


def test_load_ratings_ml1m_and_csv_header(tmp_path, monkeypatch):
    ml1m = _write(tmp_path, "1::10::5::978300760\n1::11::3::978302109\n2::10::4::978301968\n"
                  "2::10::2::978301969\n", "ratings.dat")
    table = load_ratings(ml1m, parse_format("ml1m"))
    assert table.ratings.tolist() == [[1, 10, 5], [1, 11, 3], [2, 10, 2]]
    assert (table.malformed, table.duplicates) == (0, 1)
    csv = _write(tmp_path, "user,item,rating\n3,7,1\n3,8,5\n4,7,4.0\n4,8,3.5\n"
                 * 1 + "3,7,2\n", "ratings.csv")
    monkeypatch.setattr(ingest, "MALFORMED_CAP", 0.5)
    table = load_ratings(csv, parse_format("csv:,:user,item,rating:1-5:header"))
    assert table.ratings.tolist() == [[3, 7, 2], [3, 8, 5], [4, 7, 4]]
    assert (table.malformed, table.duplicates) == (1, 1)


def test_fractional_level_is_malformed_and_a_whole_float_level_reads_as_an_int(tmp_path, monkeypatch):
    monkeypatch.setattr(ingest, "MALFORMED_CAP", 1.0)
    path = _write(tmp_path, "1\t10\t4.5\t0\n1\t11\t4.0\t0\n1\t12\t3\t0\n")
    table = load_ratings(path, FORMATS["ml100k"])
    assert table.ratings.tolist() == [[1, 11, 4], [1, 12, 3]]
    assert table.malformed == 1


def test_utf8_byte_order_mark_is_skipped(tmp_path):
    rng = np.random.default_rng(7)
    text = "".join(f"{u}\t{i}\t{rng.integers(1, 6)}\t{u}\n"
                   for u in range(1, 81) for i in rng.choice(np.arange(1, 11), 6, replace=False))
    plain = tmp_path / "plain.data"
    plain.write_bytes(text.encode())
    marked = tmp_path / "bom.data"
    marked.write_bytes(b"\xef\xbb\xbf" + text.encode())
    want, got = load_ratings(plain, FORMATS["ml100k"]), load_ratings(marked, FORMATS["ml100k"])
    assert len(want.ratings) == 480
    assert got.ratings.tolist() == want.ratings.tolist()
    assert (got.malformed, got.duplicates) == (0, 0)


# The per-line semantics the columnar loader must keep: every line is
# stripped and split on the delimiter; a level written as 4.0 is 4, 3.5 is
# malformed; ids outside int64 are malformed; the last line of a
# (user, item) wins. Selections and rankings walk the resulting dict.

def _reference_load(path, fmt):
    cols = [fmt.column(c) for c in ("user", "item", "rating")]
    ratings, malformed, duplicates = {}, 0, 0
    with open(path, encoding="utf-8", errors="replace") as fh:
        for lineno, line in enumerate(fh):
            line = line.strip()
            if (fmt.header and lineno == 0) or not line:
                continue
            parts = line.split(fmt.delimiter)
            try:
                user, item = int(parts[cols[0]]), int(parts[cols[1]])
                try:
                    level = int(parts[cols[2]])
                except ValueError:
                    rating = float(parts[cols[2]])
                    level = int(rating) if rating.is_integer() else None
            except (IndexError, ValueError):
                level = None
            if level is None or not fmt.scale[0] <= level <= fmt.scale[1] or not all(
                -2**63 <= v < 2**63 for v in (user, item)
            ):
                malformed += 1
                continue
            duplicates += (user, item) in ratings
            ratings[(user, item)] = level
    return ratings, malformed, duplicates


def _reference_rankings(ratings, items, users):
    index = {item: i for i, item in enumerate(items)}
    by_user = defaultdict(lambda: defaultdict(list))
    for (user, item), level in ratings.items():
        if item in index and user in users:
            by_user[user][level].append(index[item])
    return [
        (user, tuple(tuple(sorted(by_user[user][lv])) for lv in sorted(by_user[user])[::-1]),
         tuple(sorted(by_user[user])[::-1]))
        for user in sorted(by_user)
    ]


def _ranked(counts):
    return [key for key, _ in sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))]


def _dirty_file(path, rng, fmt, kinds):
    """Lines of the given kinds over a small (user, item) pool, so that
    duplicates span blocks, and lines read by digit arithmetic and lines
    read one at a time."""
    d = fmt.delimiter
    lines = ["user" + d + "item" + d + "rating"] if fmt.header else []
    for _ in range(int(rng.integers(20, 120))):
        fields = {"user": str(rng.integers(1, 9)), "item": str(rng.integers(1, 12)),
                  "rating": str(rng.integers(1, 6)), "timestamp": str(rng.integers(10**9))}
        kind = rng.choice(kinds)
        if kind == 1:
            fields["rating"] += ".0"
        elif kind == 2:
            fields["rating"] = "+" + fields["rating"]
        elif kind == 3:
            fields["rating"] = " " + fields["rating"]
        elif kind == 4:
            fields["rating"] = "3.5"
        elif kind == 5:
            fields["rating"] = str(rng.choice([0, 6, 9, -1]))
        elif kind == 6:
            fields[rng.choice(["user", "rating"])] = str(10**19 + int(rng.integers(10**18)))
        line = d.join(fields.get(c, "x") for c in fmt.columns)
        if kind == 7:
            line = rng.choice(["   ", "\t", "# a comment", d.join(line.split(d)[:2])])
        elif kind == 8:
            line = " " + line
        elif kind == 11:
            line = rng.choice(["\t", d]) + line
        elif kind == 9:
            line += rng.choice([" ", "\t", d, "\r"])
        elif kind == 10:
            line = ""
        lines.append(line)
    text = "\n".join(lines)
    if rng.integers(2):
        text = text.replace("\n", "\r\n")
    if rng.integers(2):
        text += "\n"
    path.write_bytes(text.encode())
    return path


@pytest.mark.parametrize("fmt", [
    FORMATS["ml100k"],
    FORMATS["ml1m"],
    parse_format("csv:,:user,item,rating:1-5:header"),
    parse_format("csv:;:timestamp,item,user,rating:1-5"),
    FormatDescriptor("\t", ("timestamp", "user", "item", "rating"), False, (1, 5)),
], ids=["ml100k", "ml1m", "csv-header", "csv-permuted", "tab-unused-first"])
def test_columnar_ingest_matches_per_line_reference(tmp_path, monkeypatch, fmt):
    monkeypatch.setattr(ingest, "MALFORMED_CAP", 1.0)
    rng = np.random.default_rng(20101)
    plain = [0] * 20 + [5, 10]  # digits and delimiters only, or blank
    mixes = [plain + [2, 3, 8, 9], plain + [2, 3, 8, 9, 11], [0, 0, 0, *range(12)]]
    for trial in range(18):
        # 12 bytes: most blocks hold a line or two, so duplicates span blocks
        monkeypatch.setattr(ingest, "_BLOCK", (ingest._BLOCK, 12)[trial % 2])
        path = _dirty_file(tmp_path / f"r{trial}.txt", rng, fmt, mixes[trial % 3])
        ratings, malformed, duplicates = _reference_load(path, fmt)
        table = load_ratings(path, fmt)
        assert table.ratings.tolist() == [[u, i, lv] for (u, i), lv in sorted(ratings.items())]
        assert (table.malformed, table.duplicates) == (malformed, duplicates)
        items = _ranked(Counter(i for _, i in ratings))[:6]
        assert select_items(table, len(items)) == items
        coverage = Counter(u for u, i in ratings if i in items)
        for top_m in (None, 3):
            assert select_users(table, items, top_m) == _ranked(coverage)[:top_m]
        users = _ranked(coverage)[::2]
        _, rankings = build_rankings(table, items, users)
        assert [(u, r.groups, r.level_labels) for u, r in rankings] == _reference_rankings(
            ratings, items, set(users))


# Files at the edges of the byte parser: long and signed fields, bytes that
# are not UTF-8, line ends, blank lines and leading delimiters.
_ML100K = FORMATS["ml100k"]
_HEADER = parse_format("csv:,:user,item,rating:1-5:header")
_SPACED = parse_format("csv: :user,item,rating:1-5")
_EDGES = {
    "digits-18-19-20": (_ML100K, b"123456789012345678\t10\t5\t0\n"
                        b"1234567890123456789\t10\t4\t0\n"
                        b"12345678901234567890\t10\t3\t0\n"
                        b"7\t000000000000000011\t2\t0\n"
                        b"7\t12\t0000000000000000003\t0\n"
                        b"7\t13\t3\t123456789012345678901234567890\n"),
    "int64-ends": (_ML100K, b"9223372036854775807\t-9223372036854775807\t5\t0\n"
                   b"-9223372036854775807\t9223372036854775807\t4\t0\n"
                   b"9223372036854775808\t1\t4\t0\n1\t2\t3\t0\n"),
    "invalid-utf8": (_ML100K, b"1\t10\t5\t\xff\xfe\n\xff1\t11\t4\t0\n1\t12\xc3\t3\t0\n"
                     b"2\t10\t\xe2\x82\n2\t11\t2\t0\xe2\x82\n2\t12\t1\t0\n"),
    "lone-cr": (_ML100K, b"1\t10\t5\t0\r2\t10\t4\t0\r\n3\t11\t2\t0\r\r\n1\t10\t1\t0\r"),
    "whitespace-lines": (_ML100K, b"   \n\t\t\n \r\n1\t10\t5\t0\n\x0b\x0c\n\xc2\xa0\n2\t10\t3\t0\n"),
    "leading-tab": (FormatDescriptor("\t", ("user", "item", "rating", "timestamp"), False, (1, 5)),
                    b"\t1\t10\t5\t0\n1\t11\t4\t0\t\n\t\t2\t10\t3\n2\t\t11\t3\n"),
    "leading-space": (_SPACED, b" 1 10 5\n1 11 4 \n  2 10 3\n2  11 3\n3 10 2 extra\n"),
    "no-final-newline": (_ML100K, b"1\t10\t5\t0\n2\t11\t3\t0"),
    "empty": (_ML100K, b""),
    "header-only": (_HEADER, b"user,item,rating\n"),
    "header-no-newline": (_HEADER, b"user,item,rating"),
}


@pytest.mark.parametrize("block", [ingest._BLOCK, 1])
@pytest.mark.parametrize("case", list(_EDGES))
def test_byte_parser_edge_cases_match_per_line_reference(tmp_path, monkeypatch, case, block):
    monkeypatch.setattr(ingest, "_BLOCK", block)
    monkeypatch.setattr(ingest, "MALFORMED_CAP", 1.0)
    fmt, data = _EDGES[case]
    path = tmp_path / "edge.data"
    path.write_bytes(data)
    ratings, malformed, duplicates = _reference_load(path, fmt)
    if not ratings:
        with pytest.raises(IngestError):
            load_ratings(path, fmt)
        return
    table = load_ratings(path, fmt)
    assert table.ratings.tolist() == [[u, i, lv] for (u, i), lv in sorted(ratings.items())]
    assert (table.malformed, table.duplicates) == (malformed, duplicates)
