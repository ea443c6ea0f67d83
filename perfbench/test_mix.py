"""Tests of the benchmark's seeded inputs (python3 -m unittest discover -s perfbench)."""

import os
import tempfile
import unittest

import mix

LOOPS = 1180  # the full suite: room for long request mixes


def fresh_points(requests):
    """Distinct points the server must evaluate fresh, in request order."""
    seen, out = set(), []
    for _, kind, p, _ in requests:
        if kind in ("fresh", "dup") and p not in seen:
            seen.add(p)
            out.append(p)
    return out


def read(path):
    with open(path) as f:
        return f.read()


class KeySpace(unittest.TestCase):
    def test_size_and_distinct(self):
        keys = mix.key_space(LOOPS)
        self.assertEqual(len(keys), LOOPS * len(mix.GRID) * len(mix.REGISTERS))
        self.assertEqual(len(set(keys)), len(keys))

    def test_labels_parse_as_configs(self):
        self.assertIn((0, "4w2(64)", 4), mix.key_space(1))

    def test_systematic_covers_every_configuration(self):
        points = mix.systematic(7, "probe", 360, 295)
        self.assertEqual(len(points), 360)
        self.assertEqual(len(set(points)), 360)
        self.assertEqual({p[1] for p in points}, {p[1] for p in mix.key_space(1)})
        self.assertTrue(all(p[0] < 295 for p in points))


class ServeMix(unittest.TestCase):
    def test_same_seed_same_mix(self):
        self.assertEqual(mix.serve_mix(3, 2, 200, LOOPS), mix.serve_mix(3, 2, 200, LOOPS))

    def test_other_seed_other_mix(self):
        self.assertNotEqual(mix.serve_mix(3, 2, 200, LOOPS)[1], mix.serve_mix(4, 2, 200, LOOPS)[1])

    def test_slots_are_evenly_due(self):
        _, requests = mix.serve_mix(1, 2, 200, LOOPS)
        dues = sorted({r[0] for r in requests})
        self.assertEqual(len(dues), 400)
        self.assertAlmostEqual(dues[1] - dues[0], 5.0)

    def test_kind_shares_and_paths(self):
        seeded, requests = mix.serve_mix(5, 20, 200, LOOPS)
        seeded = set(seeded)
        kinds = {}
        for _, kind, _, _ in requests:
            kinds[kind] = kinds.get(kind, 0) + 1
        for kind, share in mix.SHARES:
            n = kinds[kind] // (2 if kind == "dup" else 1)
            self.assertEqual(n, int(20 * 200 * share))
        store = [p for _, k, p, _ in requests if k == "store"]
        fresh = [p for _, k, p, _ in requests if k == "fresh"]
        self.assertTrue(all(p in seeded for p in store))
        self.assertEqual(len(set(store)), len(store))
        self.assertFalse(seeded & set(fresh))
        self.assertEqual(len(set(fresh)), len(fresh))

    def test_every_seed_asks_for_the_same_fresh_points_in_order(self):
        def fresh(seed):
            return fresh_points(mix.serve_mix(seed, 5, 200, LOOPS)[1])

        self.assertEqual(fresh(1), fresh(2))
        self.assertNotEqual(mix.serve_mix(1, 5, 200, LOOPS)[1], mix.serve_mix(2, 5, 200, LOOPS)[1])
        self.assertEqual(len(fresh(1)), sum(int(5 * 200 * share) for kind, share in mix.SHARES
                                           if kind in ("fresh", "dup")))

    def test_every_block_holds_each_share(self):
        _, requests = mix.serve_mix(4, 2, 200, LOOPS)
        slots = {}
        for due, kind, _, _ in requests:
            slots[due] = kind
        kinds = [slots[d] for d in sorted(slots)]
        for b in range(0, len(kinds), mix.BLOCK):
            block = kinds[b:b + mix.BLOCK]
            for kind, share in mix.SHARES:
                self.assertEqual(block.count(kind), round(mix.BLOCK * share))

    def test_duplicates_come_in_pairs_due_together(self):
        _, requests = mix.serve_mix(9, 5, 200, LOOPS)
        dups = [(due, p) for due, k, p, _ in requests if k == "dup"]
        self.assertEqual(len(dups) % 2, 0)
        for a, b in zip(dups[::2], dups[1::2]):
            self.assertEqual(a, b)

    def test_seeded_share_of_key_space(self):
        seeded, requests = mix.serve_mix(1, 1, 10, LOOPS)
        rest = len(mix.key_space(LOOPS)) - len(fresh_points(requests))
        self.assertEqual(len(seeded), int(rest * mix.SEEDED_SHARE))


class Inputs(unittest.TestCase):
    def test_written_files_are_deterministic(self):
        def write(seed):
            with tempfile.TemporaryDirectory() as d:
                mix.write_inputs(d, "verified-store", seed, 200, 295, 100, 50, 1)
                return {n: read(os.path.join(d, n)) for n in sorted(os.listdir(d))}

        a = write(11)
        self.assertEqual(sorted(a), ["probe.txt", "requests.txt", "seeded.txt", "subset.txt"])
        self.assertEqual(a, write(11))
        self.assertNotEqual(a, write(12))

    def test_batch_inputs(self):
        with tempfile.TemporaryDirectory() as d:
            mix.write_inputs(d, "figures-cold", 1, 200, 295, 100, 50, 1)
            probe = read(os.path.join(d, "probe.txt")).splitlines()
            subset = read(os.path.join(d, "subset.txt")).splitlines()
            names = sorted(os.listdir(d))
        self.assertEqual((len(probe), len(subset)), (100, 50))
        self.assertEqual(names, ["probe.txt", "subset.txt"])
        self.assertEqual(probe[0].split()[2], "4")

    def test_verified_store_also_gets_a_serve_mix_over_its_sample(self):
        with tempfile.TemporaryDirectory() as d:
            info = mix.write_inputs(d, "verified-store", 1, 200, 295, 100, 50, 2)
            requests = read(os.path.join(d, "requests.txt")).splitlines()
        self.assertEqual(info["requests"], len(requests))
        self.assertTrue(all(int(r.split()[2]) < 295 for r in requests))


if __name__ == "__main__":
    unittest.main()
