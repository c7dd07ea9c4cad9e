"""Golden outputs: the JSON bytes of fixed commands are pinned by sha256.

A change that is meant to keep the results (a speed-up, a refactor) must
keep these hashes; a change that alters results on purpose updates them
and says why.
"""
import hashlib

import pytest

from rootsplit import cli

GOLDEN = {
    ("classify", "--max-rank", "3", "--include-products"):
        "0fd1b9b6f765de12e38baf7cdbe6106372bfda6290b3a1e9b237dc76925578c2",
    ("classify", "A8", "wolf"):
        "d8d0d5242b6aee1b5cc0d45a28a5dc4a42b7c8603c947a8cc1b9cb1c37791973",
    ("classify", "E6", "wolf"):
        "78264aa5de567562df708e9e8d779c99bfa29308a4ff65c593083e306233e152",
    # half-integer coordinates (F4, E7), long roots 2e_i (C8), and the
    # case_d3 path through the split subcommand
    ("classify", "F4", "wolf"):
        "f46eefa8dfc96bfaa5d6c1f1f6ae5a097ecb296f75afff543179bdd81ff53ed0",
    ("classify", "E7", "wolf"):
        "8893aa39c0dcbfc774ed79c8a01dc647588b4583c7ad66bf79ec1330075ec549",
    ("classify", "C8", "wolf"):
        "0e53e09edd0b9c9990b0a357a0cb7333b821cd7f595fca9a3fbe2db126f7bc91",
    ("split", "B3", "A2#0"):
        "78e3cd98d0e7dd701586cbd249109d4b549990c05ee7f44a45e68b9e8f889b13",
    # type descriptions: long and short subsystems, the B/C aliases, D4 in
    # F4, and E7 on half-integer coordinates
    ("subsystems", "F4"):
        "2f2c9b690b55a10577a83cd9012781b655d972cacc60cbfd1a6eff12f85bb91b",
    ("subsystems", "C4"):
        "a34567f036efc210d81f20c783eae6d05cd13315cf7f9cc5ff49f5c75bd159eb",
    ("classify", "E8", "wolf"):
        "95b3e43c98a35f5521ea08b822e51cd668aba8d5454ac8d00b4b29b440ee8d2a",
    # Weyl class representatives of the enumerator (simple, product, and the
    # undeduplicated list) and every simple verdict through rank 4
    ("subsystems", "B4"):
        "a4b44574fb698ec74c931b1a48d251b2c988260ecb5c1eb8fe73bceafda754ea",
    ("subsystems", "D4"):
        "0e2b78f868ca75afb90ce5847aaceaf215ed4501be101409e6d6072768f1bcd4",
    ("subsystems", "A1+A1+B2"):
        "d30eb9ecac9aac4997cab84cc2bb09ca58ae41f1b5ab4044efff46e241b377e0",
    ("subsystems", "C3", "--no-dedup"):
        "97461ee035242d28a4c689b7794a5f39c51d9b9cfa77c62a50b16fdcb8ce264d",
    ("classify", "--max-rank", "4"):
        "ab824a082ac67e4e678407c0d2e92d5ac5a0e9ca610afc95ba76f27e706e81d6",
    # the Wolf subsystem and certificate as the wolf subcommand prints them
    ("wolf", "B3"):
        "d22442ee6eecd3f28bf70e6edb68f4fc146f6320e5d1e9d0d87fd8766b85c445",
    ("wolf", "C8"):
        "34bb1e1b3e7747c16dff399bfea61a3ffd9bce1092e5af89c7fbe8c03d037b4a",
    ("wolf", "E8"):
        "1464c264ac252e28a822556f9fdaa5710e8ce724b902991fa6fb15930bcc549f",
    # h = torus and a JSON root list, resolved by closed_subsystem, and a
    # split on the G2 Wolf weights
    ("weights", "E8", "torus"):
        "9846164448f8b9fd8e22d3701ebbadaff7e9b312e549f187a0f5420759f87074",
    ("weights", "B2", "[[1,0],[-1,0]]"):
        "6cdcb67fcccd839ed4a8b925102f01c31c9befe0484920dac825f7bbc4fb12f1",
    ("split", "G2", "wolf"):
        "3ff49c2529bc60f121bdbc7babf5854fe82f8d2ec13867b353357331ac02eb2e",
    # the Weyl class representatives of every parent of rank <= 4, products
    # included, of a product with a B3 factor, and the undeduplicated F4
    # list; the first will change on purpose when product parents are
    # classified by their effective quotient (ROADMAP items 2-3)
    ("classify", "--max-rank", "4", "--include-products"):
        "e12e23d1eb027119e24056524cedb60579416849633641e8c3a4ee54e8a30457",
    ("subsystems", "A1+B3"):
        "73812b16a49b331514bb4ce92acc7020b22aa7868e7a2d8da0d00bf6098b587a",
    ("subsystems", "F4", "--no-dedup"):
        "58c159ef9fa74fb687c20b906edb8ca40673a21d2c72c65e3d962f0b128b6eb8",
    # the axiom check: two valid systems, and one invalid root list for each
    # violation the pairwise scan reports (R2; R3 with R4; R4 by a
    # reflection; R4 by a missing negative), with its witnesses
    ("validate", "E8"):
        "1bc74e199bcc58b41274850ff74d9609d82c2e26cb4a253d86acd73ceb545328",
    ("validate", "G2"):
        "1bc74e199bcc58b41274850ff74d9609d82c2e26cb4a253d86acd73ceb545328",
    ("validate", "--roots", '[["1"],["-1"],["2"],["-2"]]'):
        "ee7c5c64e45625b4ddf3274149deb56fc345c566de9f060dc1f719d98c9df277",
    ("validate", "--roots", "[[1,0],[-1,0],[1,2],[-1,-2]]"):
        "2233ad8ca76a910de45de92cc66d95967873405c9c1887214ea9b4203c1ea233",
    ("validate", "--roots", "[[1,0],[-1,0],[1,1],[-1,-1]]"):
        "80abd910c8fa64410eec9db96f6ccf06fae317ca264d4827d65379cdb924009f",
    ("validate", "--roots", "[[1,0],[0,1],[0,-1]]"):
        "3a0547fc72d085dc650cb19f2a9e3695989b14122516e5122e49022117fd9f90",
    # a lone zero vector (R1, and nothing left to check), and an integral
    # Cartan number 4, which the fast check refuses before any lookup
    ("validate", "--roots", "[[0,0]]"):
        "99f2775ccb42d922c5084304c122994a70a13d23760c39d6b60a5a0f724a9454",
    ("validate", "--roots", "[[1,0],[-1,0],[2,1],[-2,-1]]"):
        "7b1966f0f4d99ff07f7160ef56f034e9960c53ba8a445dbf54524183e9aa6e40",
    # the rank field of build, the number of simple roots: the largest
    # system, long roots 2e_i, and a product with a non-simply-laced factor
    ("build", "E8"):
        "28828abcccc77ddede2f6435ec9bf164db619e77cf764f2397e24c0ca1c66359",
    ("build", "C8"):
        "8d778bc7c4acabfe71872f47c6ec09d4e8eb52b4fbbe2a65217dd93d35dbb734",
    ("build", "A1+A1+B2"):
        "114ed002c11b70dd7e239a6d34cf33ea65f898a527f1f7b52fa061120ddaf590",
    # product parents, which build_sum keeps: a pair on a product with a
    # non-simply-laced factor, the S2xS2 pair, and a product's classes
    ("classify", "A1+B3", "torus"):
        "e52558a18c7ad5d1202013ea2398ba5e7953336647c22222f5831ce4984dacfb",
    ("classify", "A1+A1", "torus"):
        "df453ad8571ff90b370ded29d8d32b4ef72ae62671afcb8f40638a806084d32c",
    ("subsystems", "A1+A2"):
        "9f30abe53d7a28323341a6774703102da37778663a72021abdeca98b49a16968",
}


@pytest.mark.parametrize("argv", sorted(GOLDEN), ids=" ".join)
def test_json_output_hash(argv, tmp_path):
    # A parent's facts are kept with its built system, so a second run of a
    # command in one process reads them; it must write the same bytes.
    for run in ("first", "second"):
        out = tmp_path / f"{run}.json"
        assert cli.main([*argv, "--output", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN[argv], run
