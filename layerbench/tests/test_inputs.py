"""Input drawing and the fleet mix, on a small fake pool."""

from collections import Counter

from inputs import Pool, PoolDoc
from workloads import FLEET_GROUP_SIZE, fleet_mix


def fake_pool(tmp_path, count=40):
    blob = tmp_path / "pool.bin"
    docs, offset = [], 0
    with blob.open("wb") as out:
        for index in range(count):
            chunks = [f"doc{index}".encode()] + [f"doc{index}-v{k}".encode() for k in range(3)]
            spans = []
            for chunk in chunks:
                spans.append((offset, len(chunk)))
                out.write(chunk)
                offset += len(chunk)
            docs.append(
                PoolDoc(
                    index, "docm", (False,), chars=1000 - index, expected=(), spans=tuple(spans)
                )
            )
    return Pool(docs, [], [], [], blob=blob)


def test_draw_is_stratified_disjoint_and_seeded(tmp_path):
    pool = fake_pool(tmp_path)
    samples = pool.draw(5, strata=4, groups=2, per_stratum=3)
    assert [len(sample) for sample in samples] == [12, 12]
    chosen = [doc.index for sample in samples for doc in sample]
    assert len(set(chosen)) == 24
    # strata are by macro length: indices 30-39 are the shortest ten
    for sample in samples:
        assert Counter((1000 - doc.index - 961) // 10 for doc in sample) == {0: 3, 1: 3, 2: 3, 3: 3}
        assert all(doc.data == f"doc{doc.index}".encode() for doc in sample)
    assert [d.index for d in pool.draw(5, strata=4, groups=2, per_stratum=3)[0]] == [
        d.index for d in samples[0]
    ]
    assert pool.draw(6, strata=4, groups=2, per_stratum=3)[0] != samples[0]


def test_fleet_mix_groups(tmp_path):
    (novel,) = fake_pool(tmp_path).draw(0, strata=4, groups=1, per_stratum=1)
    mix = fleet_mix(novel, seed=3)
    assert len(mix) == 4 * FLEET_GROUP_SIZE
    for group, doc in enumerate(novel):
        sent = Counter(data for g, _, data in mix if g == group)
        # the original and its 3 re-encodings, each sent 8 times: 4 distinct
        # documents and 28 exact resubmissions
        assert sent == {data: 8 for data in (doc.data, *doc.variants)}
    assert fleet_mix(novel, seed=3) == mix
