"""Every printed output pinned byte for byte.

Each case runs one command line through ``cli.main`` and compares the
SHA-256 of its stdout, together with the exit code, against a recorded
digest.  A refactor that is meant to keep every output must keep every
digest; a change that means to alter an output updates its digest here and
says why.
"""
import hashlib
from pathlib import Path

import pytest

from dfmlcorr.cli import main
from dfmlcorr.corpus import CORPUS

ROOT = Path(__file__).resolve().parent.parent
FRAME_FILES = sorted(p.relative_to(ROOT).as_posix() for p in (ROOT / "frames").rglob("*.json"))


def cases() -> dict[str, tuple[str, ...]]:
    """Case id -> argv."""
    out = {}
    for e in CORPUS:
        for imp in ("rspoon", "tright"):
            for box in ("boxminus", "prime"):
                out[f"translate-{e.name}-{imp}-{box}"] = (
                    "translate", e.sequent, "--json", "--imp", imp, "--box", box)
        out[f"classify-{e.name}"] = ("classify", e.sequent, "--json")
        out[f"reduce-{e.name}"] = ("reduce", e.sequent, "--json")
        out[f"correspond-json-{e.name}"] = ("correspond", e.sequent, "--json", "--assume-f3")
        out[f"correspond-trace-{e.name}"] = ("correspond", e.sequent, "--trace", "--assume-f3")
    out["corpus"] = ("corpus",)
    for path in FRAME_FILES:
        out[f"check-frame-{path}"] = ("check-frame", path, "--json")
    out["verify-frames"] = ("verify", "box p |- p", "--frames", "frames/")
    return out


def digest(capsys, argv) -> str:
    code = main(list(argv))
    return f"{code}:{hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()}"


DIGESTS = {
    'check-frame-frames/bad/not-separated.json':
        "1:53281c3784592bc26e829f912e0c4ba13c5c053e49198f8bf1dffa990a217978",
    'check-frame-frames/kripke-reflexive-2.json':
        "0:8d0bb9185420209bfe0836814aef552765c3890717a2eb916c928a4248bc7582",
    'check-frame-frames/polarity-2x2.json':
        "0:70542c27e0824877177454e4e4f2583a704a961a26659cda24b178b9c0a87d74",
    'classify-box-t':
        "0:9e29ff09711f66db4bb55dec9891454c6774c8ae88923043988b75e367b18a49",
    'classify-contraction':
        "0:d2d7f3b2c6ce549db411cae3e2daa6bc923117256cff18601e766f9156847f0d",
    'classify-dia-4':
        "0:f0f9b1cdd9edfbb886751cd62504132705a7e3a9a0434dfbf507ea1e86381a1b",
    'classify-dia-t':
        "0:62e4d70f1663529c7643aa5f1b517dfc632ad0e13b53358a5199d880ead42b36",
    'classify-exchange':
        "0:08e523392ba92eb459a04640da3f22094eb592725c43cbd738823e200b40bda4",
    'classify-fisher-servi-1':
        "0:cca916e5afc3219760b2a62abb87c550374304fabb6fef368efd76c231756a5f",
    'classify-fisher-servi-2':
        "0:3f5474f907bf9896df00fe26666f84140a18527d4044da16f0b8b6c60a6abd9b",
    'classify-galois-elim':
        "0:8cb18cc197770241b562febadd9df4c5d074e7c94adc94d65156d5be665144ff",
    'classify-galois-intro':
        "0:ad729f10fe8005a18b3088c26d8ab780743e1518d50aba8691701243033b2785",
    'classify-k1':
        "0:d68f3c1859fc5c0920339585f8c173a835cb6878546387c8d47ae3ed90505130",
    'classify-k2':
        "0:98fc5e63b298dca2719684a8ef1a2ddbc1160be9d9a79ccf46106c4541eb608f",
    'classify-kleene-negation':
        "1:944a9b7f7823562ffc342562afd092eb7fd5d3ba312b9abbceec1a13ab05623d",
    'classify-pseudo-complement':
        "1:43c1563c0ea5f6fd3aae867806cc5a5307d34bae545536ba048dd35c368ffa8c",
    'classify-weakening':
        "0:20d753c8768fd8add08b7c6bcbee1afcb7c6fb168d8123c9b0b73606a54a6184",
    'corpus':
        "0:ce21ee52be18cd2d6e29c145eb2b1893681f1b673bcb88d869dd206c758bad8b",
    'correspond-json-box-t':
        "0:790f3d5f016d237127b473ebb094b69c0918fee8325c17e130097661776f04aa",
    'correspond-json-contraction':
        "0:9b75281931cda9b535cbe375fe2dcc2f7cde77f2f8dcfcb01e0c38bf80d5317a",
    'correspond-json-dia-4':
        "0:ef461d61f718cc2bb64c35e5a647765ff2777c845dd422953560a0f1261748aa",
    'correspond-json-dia-t':
        "0:89638c6c16878ebf1d9807b922f873cdaf6280c63198a3ba371faab4687e2b25",
    'correspond-json-exchange':
        "0:e640a632f37e5d1d8d49c0d485d0ed9a3d049c5d34023ab61104ee8630e42fbf",
    'correspond-json-fisher-servi-1':
        "0:af690d0a5639e203cd28a7ddbc40a315cc42d446a53736e39e53ebbb12de5d35",
    'correspond-json-fisher-servi-2':
        "0:3b0c01aaba0a9b08086079f59c6dd00b53a603bbea1c028cd11b0febec4d02d2",
    'correspond-json-galois-elim':
        "0:47343c67fdfb21db4bcd458e89360a137b019b0cb85e4fd932e553550821421f",
    'correspond-json-galois-intro':
        "0:81fef548d1e2596bd1e37898646daa73a9c97a09350acfe20f2027b532a36ebe",
    'correspond-json-k1':
        "0:856380e22cd50a5ef503b7934548130a8c0c50b0ec61f9f88c832e49a6fb861f",
    'correspond-json-k2':
        "0:bec3dc57323848fbc821645b9baa4b788e240dea11fc34e8be2b9ace5826f4cc",
    'correspond-json-kleene-negation':
        "1:9c63c6304992493faa2723794e92ac3d075aedd21db83bab7441c55a7f2ab0b6",
    'correspond-json-pseudo-complement':
        "1:a44aa1d6522d885b0118a8da8564108228374056a3a7a559bc7a390e37cf5521",
    'correspond-json-weakening':
        "0:e72f2c24af753892332c7896f0c2efa0f5d03d97555438d3f5fc4d8cb2126823",
    'correspond-trace-box-t':
        "0:5e18cf810feec4bb03f012290641661dea0d92a970937dfb227b7bcc84930013",
    'correspond-trace-contraction':
        "0:3fd7b2c003e8ae502c611cc23cba44d6540000782fbea0dc9ead42a3754592b5",
    'correspond-trace-dia-4':
        "0:75bf5f4bdc894df10cca64effe747be0794712a2ad460f31541e8e85f7063bce",
    'correspond-trace-dia-t':
        "0:fd08e9195534db1e6db4eb2157eb00578c1f93ab29b64fec6d9fd06a94c7c699",
    'correspond-trace-exchange':
        "0:7ac37d569693025ade706c837bdfb00aa8d096c5d49dc3096cd559e870626616",
    'correspond-trace-fisher-servi-1':
        "0:3795380f6e7b4bdf927f96fe599b319ad1b10f10fbdbf8db7cbae65f8181b7e5",
    'correspond-trace-fisher-servi-2':
        "0:38721b13f4e025524179b8fa74ea3c312d7487783cd813888afa183846dff71b",
    'correspond-trace-galois-elim':
        "0:831191e1a109d3d2c5e33be29cba56a4b760b07857ca31545dbe09e910d97e0b",
    'correspond-trace-galois-intro':
        "0:5eb18bdd7b8b94fc79802f52fc575d0d941631386139c21f1c4c9aaf94dc122b",
    'correspond-trace-k1':
        "0:bb04fa2205e80bdd74c4e5a2b5f6edb5a67cec38a2a031e4cb964059ac8e6213",
    'correspond-trace-k2':
        "0:3e93f5efd88ca54f210bd2e62640e77506e17a63fb2fc168d0f1f1193e0191df",
    'correspond-trace-kleene-negation':
        "1:9a5b3d1e69d79846ad5870cb1b0dfe0128f64a427429866482aa92257a493ec6",
    'correspond-trace-pseudo-complement':
        "1:9a5b3d1e69d79846ad5870cb1b0dfe0128f64a427429866482aa92257a493ec6",
    'correspond-trace-weakening':
        "0:8f3c396ba831bd1c3a2b10e1ea78b55769d1d98307f9ab91a716f2f3130ee798",
    'reduce-box-t':
        "0:dbdd6788f8e5720bd701758705e8bfdb20deb73d3e9bf88ba9032ca9ce4265e0",
    'reduce-contraction':
        "0:9d48b1df5c4dee78d23e7633ac5ff71c064a9b1f81f4ccf45c375f04113224d5",
    'reduce-dia-4':
        "0:35940443379f1e947db4299c93bd0a9483784850d7907bfe4c258265e70587f0",
    'reduce-dia-t':
        "0:25e68ff1a8dc1acdee271a91a88e07638005da8d21ec8a3f954fcfaefc694288",
    'reduce-exchange':
        "0:60534ca6251faaf9bf76e8bd971d7af782d8adfd27fb6913aea4451cef94ec56",
    'reduce-fisher-servi-1':
        "0:bc2e8141e0a379d895bd6469814d31924661607b4aa1931dc0297fa19d95b953",
    'reduce-fisher-servi-2':
        "0:aaae3dd78ac71f259c6301002153cb7f479db236f8a81455770e4f5a71393fc2",
    'reduce-galois-elim':
        "0:8fd8756328d78b5f5e814538467acaa88cb7c87f9c915ae7e5e8d5f64fb27222",
    'reduce-galois-intro':
        "0:d692d839f1cc79b73fcd29f44cbb588539d71da99bee9ddfb2d5ef468f641a9f",
    'reduce-k1':
        "0:82ee924ac10e3188f7d5898002e2d9caf54b99ac5751a8a6ae48bb463132f97b",
    'reduce-k2':
        "0:8442374ae5f38e272d4c4cbee2f88c93acc890ea169139ba585679b0d2ea4c3f",
    'reduce-kleene-negation':
        "1:51328d3201533ca940fcfab5cd68fbf834656cb9e7c8e6ed8c7ed52d636dadd8",
    'reduce-pseudo-complement':
        "1:c1161d8eb1f02f51225cca7fb9d5eaac27df468cce560d1df9b295ec1b5231d2",
    'reduce-weakening':
        "0:122338309c5d5c7986e3ee7d12c56374a71a23b5ad74cf3a818cbd9f6340a206",
    'translate-box-t-rspoon-boxminus':
        "0:f0b3308583345e1d96c87adfd7de19783fa3571335316667ae39a98bf6766ff9",
    'translate-box-t-rspoon-prime':
        "0:eb0289ac2a3fc07b2efb51c88c4bde958f6c37d2d3053fa0ef741fa43e3208d3",
    'translate-box-t-tright-boxminus':
        "0:f0b3308583345e1d96c87adfd7de19783fa3571335316667ae39a98bf6766ff9",
    'translate-box-t-tright-prime':
        "0:eb0289ac2a3fc07b2efb51c88c4bde958f6c37d2d3053fa0ef741fa43e3208d3",
    'translate-contraction-rspoon-boxminus':
        "0:468d43f2f2ae7cc7ece703e733a72007ab6264d072ad8d895c9e7d6861e01c89",
    'translate-contraction-rspoon-prime':
        "0:468d43f2f2ae7cc7ece703e733a72007ab6264d072ad8d895c9e7d6861e01c89",
    'translate-contraction-tright-boxminus':
        "0:21ffa6d6f39d9bd53503390b5b255c5073e2d25a504b6b07d1d18524ac3bebf0",
    'translate-contraction-tright-prime':
        "0:21ffa6d6f39d9bd53503390b5b255c5073e2d25a504b6b07d1d18524ac3bebf0",
    'translate-dia-4-rspoon-boxminus':
        "0:3409f2df4489dead8c56a057d42802c68520509c95448da1c90fb183abaa7324",
    'translate-dia-4-rspoon-prime':
        "0:3409f2df4489dead8c56a057d42802c68520509c95448da1c90fb183abaa7324",
    'translate-dia-4-tright-boxminus':
        "0:3409f2df4489dead8c56a057d42802c68520509c95448da1c90fb183abaa7324",
    'translate-dia-4-tright-prime':
        "0:3409f2df4489dead8c56a057d42802c68520509c95448da1c90fb183abaa7324",
    'translate-dia-t-rspoon-boxminus':
        "0:21b7cc5a9f22768c91cb4684594bbbbf0c72e2072f5b28b51bfb23d5e2002c71",
    'translate-dia-t-rspoon-prime':
        "0:21b7cc5a9f22768c91cb4684594bbbbf0c72e2072f5b28b51bfb23d5e2002c71",
    'translate-dia-t-tright-boxminus':
        "0:21b7cc5a9f22768c91cb4684594bbbbf0c72e2072f5b28b51bfb23d5e2002c71",
    'translate-dia-t-tright-prime':
        "0:21b7cc5a9f22768c91cb4684594bbbbf0c72e2072f5b28b51bfb23d5e2002c71",
    'translate-exchange-rspoon-boxminus':
        "0:6654aa219ca938c611dce2e016bc132f261145c12d4dc0d760011ae28249a4e5",
    'translate-exchange-rspoon-prime':
        "0:6654aa219ca938c611dce2e016bc132f261145c12d4dc0d760011ae28249a4e5",
    'translate-exchange-tright-boxminus':
        "0:642006d33943420d047e0d92cc9dc5a76b95cefee5d20fcecf49aa073020e823",
    'translate-exchange-tright-prime':
        "0:642006d33943420d047e0d92cc9dc5a76b95cefee5d20fcecf49aa073020e823",
    'translate-fisher-servi-1-rspoon-boxminus':
        "0:b9c49c475f91f4478922c401ad99a4b2b43fac03d32b191b0861ad203a3a1a94",
    'translate-fisher-servi-1-rspoon-prime':
        "0:e9002d2f29bfd8a0bffc98fe6649223b85dd629ab0ee80ae81766e03dc184498",
    'translate-fisher-servi-1-tright-boxminus':
        "0:a4b42cea0f5763f33afcd58cc404ec15d26ec1557bcb19d55757d2cf8d79054c",
    'translate-fisher-servi-1-tright-prime':
        "0:4528fa4fd18794ef9aca4eaa4d3725171443bba600b7668915862228c3ad4c39",
    'translate-fisher-servi-2-rspoon-boxminus':
        "0:57b16c2f5a7e209b4b9d03727b58ead78952ccd7ee86316226325d5c6d654bcc",
    'translate-fisher-servi-2-rspoon-prime':
        "0:017604873b440e95fb393f53f8b00a6c21d068deb7e5396ab904376f32272b6b",
    'translate-fisher-servi-2-tright-boxminus':
        "0:006bdacdd390b785bda8a64ce421e5cf913163b7d330744bd6fc20bddc978d68",
    'translate-fisher-servi-2-tright-prime':
        "0:827e35c1181c6a1a3cc9e2646764f9372bb461e3031090d7ab61806236dff3b7",
    'translate-galois-elim-rspoon-boxminus':
        "0:5887e3411429d4ada04a8f84c133385279a892f9ac65e3756af738e7c3de14ec",
    'translate-galois-elim-rspoon-prime':
        "0:5887e3411429d4ada04a8f84c133385279a892f9ac65e3756af738e7c3de14ec",
    'translate-galois-elim-tright-boxminus':
        "0:5887e3411429d4ada04a8f84c133385279a892f9ac65e3756af738e7c3de14ec",
    'translate-galois-elim-tright-prime':
        "0:5887e3411429d4ada04a8f84c133385279a892f9ac65e3756af738e7c3de14ec",
    'translate-galois-intro-rspoon-boxminus':
        "0:46f763422d31f3f34823c21c02eda2b8a16973f76feb7b2961568033de6508e7",
    'translate-galois-intro-rspoon-prime':
        "0:46f763422d31f3f34823c21c02eda2b8a16973f76feb7b2961568033de6508e7",
    'translate-galois-intro-tright-boxminus':
        "0:46f763422d31f3f34823c21c02eda2b8a16973f76feb7b2961568033de6508e7",
    'translate-galois-intro-tright-prime':
        "0:46f763422d31f3f34823c21c02eda2b8a16973f76feb7b2961568033de6508e7",
    'translate-k1-rspoon-boxminus':
        "0:cf87d7958451d5aba09d51430cafc181ac4f302babb48405fcb3abdd345153bc",
    'translate-k1-rspoon-prime':
        "0:3c7e1ee6b71282ac447ebfe459dca17a4efe3b3d15267573911f9bc7d66adc08",
    'translate-k1-tright-boxminus':
        "0:cf87d7958451d5aba09d51430cafc181ac4f302babb48405fcb3abdd345153bc",
    'translate-k1-tright-prime':
        "0:3c7e1ee6b71282ac447ebfe459dca17a4efe3b3d15267573911f9bc7d66adc08",
    'translate-k2-rspoon-boxminus':
        "0:655403ab6d37b91f8e6841c728733c06b805a321cf1c71630d843dd3b9f9ce49",
    'translate-k2-rspoon-prime':
        "0:408469511cbec7a475a6447ce734d7034db40fd3e60c120d846f8a21ae810a98",
    'translate-k2-tright-boxminus':
        "0:655403ab6d37b91f8e6841c728733c06b805a321cf1c71630d843dd3b9f9ce49",
    'translate-k2-tright-prime':
        "0:408469511cbec7a475a6447ce734d7034db40fd3e60c120d846f8a21ae810a98",
    'translate-kleene-negation-rspoon-boxminus':
        "0:4b8b07885cd7c9f3b4f6198f182d21262c899322810e313429c5f0c9c55eb502",
    'translate-kleene-negation-rspoon-prime':
        "0:4b8b07885cd7c9f3b4f6198f182d21262c899322810e313429c5f0c9c55eb502",
    'translate-kleene-negation-tright-boxminus':
        "0:4b8b07885cd7c9f3b4f6198f182d21262c899322810e313429c5f0c9c55eb502",
    'translate-kleene-negation-tright-prime':
        "0:4b8b07885cd7c9f3b4f6198f182d21262c899322810e313429c5f0c9c55eb502",
    'translate-pseudo-complement-rspoon-boxminus':
        "0:f29e55347e4797ed42371b0c58e22c94dbf1b4bf84fd02d7fedcad48eaa8d4e8",
    'translate-pseudo-complement-rspoon-prime':
        "0:f29e55347e4797ed42371b0c58e22c94dbf1b4bf84fd02d7fedcad48eaa8d4e8",
    'translate-pseudo-complement-tright-boxminus':
        "0:f29e55347e4797ed42371b0c58e22c94dbf1b4bf84fd02d7fedcad48eaa8d4e8",
    'translate-pseudo-complement-tright-prime':
        "0:f29e55347e4797ed42371b0c58e22c94dbf1b4bf84fd02d7fedcad48eaa8d4e8",
    'translate-weakening-rspoon-boxminus':
        "0:955b74dc2b1ccccfeeb5ced986742c2db42b1d70249b3860dcc1cb59754afa0e",
    'translate-weakening-rspoon-prime':
        "0:955b74dc2b1ccccfeeb5ced986742c2db42b1d70249b3860dcc1cb59754afa0e",
    'translate-weakening-tright-boxminus':
        "0:9f1ae2bf253944a6474b910e4fd308166ee1162327ffbed2abb50cdf33f34a60",
    'translate-weakening-tright-prime':
        "0:9f1ae2bf253944a6474b910e4fd308166ee1162327ffbed2abb50cdf33f34a60",
    'verify-frames':
        "0:af9ef48a590ad0dbe868ed127569afb714fc728c4bc4ad4bb7cb6cc6a14daab1",
}


def test_every_case_has_a_digest():
    assert sorted(cases()) == sorted(DIGESTS)


@pytest.mark.parametrize("case", sorted(cases()))
def test_output_is_unchanged(capsys, monkeypatch, case):
    monkeypatch.chdir(ROOT)
    assert digest(capsys, cases()[case]) == DIGESTS[case]
