import pytest

from rankdens.ingest import (
    FORMATS,
    IngestError,
    build_rankings,
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


def test_load_ratings_basic(tmp_path):
    path = _write(tmp_path, "1\t10\t5\t0\n1\t11\t3\t1\n2\t10\t4\t2\n")
    table = load_ratings(path, FORMATS["ml100k"])
    assert table.ratings == {(1, 10): 5, (1, 11): 3, (2, 10): 4}
    assert table.malformed == 0
    assert table.item_counts == {10: 2, 11: 1}


def test_load_ratings_last_duplicate_wins(tmp_path):
    path = _write(tmp_path, "1\t10\t5\t0\n1\t10\t2\t9\n")
    table = load_ratings(path, FORMATS["ml100k"])
    assert table.ratings[(1, 10)] == 2
    assert table.duplicates == 1


def test_load_ratings_malformed_tolerated(tmp_path):
    lines = ["1\t10\t5\t0"] * 30 + ["garbage line", "1\t11\t9\t0", "1\t12\t3.5\t0",
                                      "1\t13\t4.0\t0"]
    path = _write(tmp_path, "\n".join(lines) + "\n")
    table = load_ratings(path, FORMATS["ml100k"], error_rate_cap=0.1)
    assert table.malformed == 3  # unparseable, out-of-scale and fractional rating
    assert table.ratings[(1, 13)] == 4 and type(table.ratings[(1, 13)]) is int


def test_load_ratings_error_cap(tmp_path):
    path = _write(tmp_path, "junk\njunk\n1\t10\t5\t0\n")
    with pytest.raises(IngestError):
        load_ratings(path, FORMATS["ml100k"], error_rate_cap=0.05)
    with pytest.raises(IngestError):
        load_ratings(tmp_path / "missing.tsv", FORMATS["ml100k"])


def test_select_items_and_users(tmp_path):
    text = "1\t10\t5\t0\n1\t11\t4\t0\n2\t10\t3\t0\n2\t12\t2\t0\n3\t10\t1\t0\n"
    table = load_ratings(_write(tmp_path, text), FORMATS["ml100k"])
    assert select_items(table, 2) == [10, 11]  # count, then ascending id
    users = select_users(table, [10, 11], top_m=2)
    assert users == [1, 2]
    assert select_users(table, [10, 11], min_count=2) == [1]
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
