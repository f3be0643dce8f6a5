"""The library's answers, pinned: one SHA-256 per (model, p, label) over the
descended presentation and its verified battery.

Each digest covers mult, unit, comul, counit, antipode, provenance.basis
and the CheckReport of descend_and_verify, so a change to a map that no
pinned CLI report prints still fails Tier-1.  The descents are the session
fixture `batteries` of conftest.py, shared with the other tests, so no
structure is descended here.

provenance.phi is left out on purpose.  It is Phi' = lform_matrix(R[N], E_B)
over descend's internal frame R, whose coordinates a change of route may
change without changing H: a frame read on another basis of R gives
another phi of the same rank, and only that rank (the base-change check) is
part of the answer.

A failing digest names the model, p and label by its test id, and the field
that changed by FIELD_DIGESTS, which pins each field over all the labels of
one model.
"""

import hashlib

import pytest

from hopfgalois.linalg import Matrix, Q

from conftest import ANSWER_MODELS

FIELDS = ("mult", "unit", "comul", "counit", "antipode", "basis", "report")


def _matrix_text(m):
    return f"{m.rows}x{m.cols}|" + ";".join(
        " ".join(f"{j}={x}" for j, x in sorted(m.row_entries(i))) for i in range(m.rows))


def _texts(H, report):
    """{field: text} of one structure's answer."""
    return {"mult": _matrix_text(H.mult), "unit": " ".join(map(str, H.unit)),
            "comul": _matrix_text(H.comul), "counit": _matrix_text(H.counit),
            "antipode": _matrix_text(H.antipode), "basis": _matrix_text(H.provenance.basis),
            "report": "\n".join(f"{c.name}|{c.passed}|{c.detail}" for c in report)}


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


def structure_digest(texts):
    return _sha("\n".join(f"{f}:{texts[f]}" for f in FIELDS))


def field_digests(by_label):
    """{field: SHA-256 of that field over every label}, for {label: texts}."""
    return {f: _sha("\n".join(f"{label}:{texts[f]}" for label, texts in by_label.items()))
            for f in FIELDS}


def changed_fields(model, by_label):
    """The fields of `model` whose digest over its labels is not the pinned one."""
    return [f for f, d in field_digests(by_label).items() if d != FIELD_DIGESTS[model][f]]


@pytest.fixture(scope="module")
def answers(batteries):
    """{(field, p): {label: texts}} of every pinned structure."""
    return {model: {label: _texts(b.H, b.report) for label, b in runs.items()}
            for model, runs in batteries.items()}


# recorded on the route through L^K and the residue e_K L^K
ANSWER_DIGESTS = {
    ("cubic:2", 3, "rho"):
        "5f2230fd5b72b1bdbde4f5dc7587db9537e474953a9fd5b514814c4b2c5ee447",
    ("cubic:2", 3, "lambda"):
        "cdd4efb96cbe1fc258789eae9b3e2b9d1f3fab8f91a357a241927849b52f7984",
    ("cubic:2", 3, "N0"):
        "cf26b00f424e482db316de7b0bd46c6ad5b55152d9788a2b58ce597bfa4fc136",
    ("cubic:2", 3, "N1"):
        "cf26b00f424e482db316de7b0bd46c6ad5b55152d9788a2b58ce597bfa4fc136",
    ("cubic:2", 3, "N2"):
        "cf26b00f424e482db316de7b0bd46c6ad5b55152d9788a2b58ce597bfa4fc136",
    ("cubic:7", 3, "rho"):
        "5f2230fd5b72b1bdbde4f5dc7587db9537e474953a9fd5b514814c4b2c5ee447",
    ("cubic:7", 3, "lambda"):
        "d61ccbb3fc0ca68f69cf6fa23226a8045fae49f6a7a4f3ea0b0d488c8c8c8e9f",
    ("cubic:7", 3, "N0"):
        "cf26b00f424e482db316de7b0bd46c6ad5b55152d9788a2b58ce597bfa4fc136",
    ("cubic:7", 3, "N1"):
        "cf26b00f424e482db316de7b0bd46c6ad5b55152d9788a2b58ce597bfa4fc136",
    ("cubic:7", 3, "N2"):
        "cf26b00f424e482db316de7b0bd46c6ad5b55152d9788a2b58ce597bfa4fc136",
    ("split", 3, "rho"):
        "c1a5330b6fd5f112c2e9559e747b5450c444a7db3049b0f270a2823bd66e4da5",
    ("split", 3, "lambda"):
        "69f94dc080661214facaffd8f69b63ae70f4bff872ebaacfcdac5657e9168b88",
    ("split", 3, "N0"):
        "ca7b91b0e87f7fab7dd89a7391b3d44c8201a043bdb62c63b97eee2e4a27cc19",
    ("split", 3, "N1"):
        "ca7b91b0e87f7fab7dd89a7391b3d44c8201a043bdb62c63b97eee2e4a27cc19",
    ("split", 3, "N2"):
        "ca7b91b0e87f7fab7dd89a7391b3d44c8201a043bdb62c63b97eee2e4a27cc19",
    ("split", 5, "rho"):
        "8342d562d1b0d6a23d5fde0eabffb9ace31f3e78ed515e0d1fa36a979648e016",
    ("split", 5, "lambda"):
        "17f5f2686949c831de2f458791c09b1e6adeb8fc05484ffcb4be691791f0b456",
    ("split", 5, "N0"):
        "97a8e1640d9781e308307df676a59c22de9af42d07083ffba434d6bf150eb0e5",
    ("split", 5, "N1"):
        "97a8e1640d9781e308307df676a59c22de9af42d07083ffba434d6bf150eb0e5",
    ("split", 5, "N2"):
        "97a8e1640d9781e308307df676a59c22de9af42d07083ffba434d6bf150eb0e5",
    ("split", 5, "N3"):
        "97a8e1640d9781e308307df676a59c22de9af42d07083ffba434d6bf150eb0e5",
    ("split", 5, "N4"):
        "97a8e1640d9781e308307df676a59c22de9af42d07083ffba434d6bf150eb0e5",
    ("split", 7, "rho"):
        "426fb39d6ce1300a05dd16329c9e35a30593ba6da2f57697ddef02222b934d9c",
    ("split", 7, "lambda"):
        "7011791e5ba48c9324d4aad14081914df96ccaa886ea65dae6434ac71b4875f5",
    ("split", 7, "N0"):
        "33c51347f30edbc93d352c7d9c557b612fe403f74118159d1cf84f677e6e96fd",
    ("split", 7, "N1"):
        "33c51347f30edbc93d352c7d9c557b612fe403f74118159d1cf84f677e6e96fd",
    ("split", 7, "N2"):
        "33c51347f30edbc93d352c7d9c557b612fe403f74118159d1cf84f677e6e96fd",
    ("split", 7, "N3"):
        "33c51347f30edbc93d352c7d9c557b612fe403f74118159d1cf84f677e6e96fd",
    ("split", 7, "N4"):
        "33c51347f30edbc93d352c7d9c557b612fe403f74118159d1cf84f677e6e96fd",
    ("split", 7, "N5"):
        "33c51347f30edbc93d352c7d9c557b612fe403f74118159d1cf84f677e6e96fd",
    ("split", 7, "N6"):
        "33c51347f30edbc93d352c7d9c557b612fe403f74118159d1cf84f677e6e96fd",
    ("split", 13, "rho"):
        "30f12ce95e95c85233dbb068b38fe2d3c7cbc7c0f4fbeaf18f46efd5190ba725",
    ("split", 13, "lambda"):
        "b1cbe2157c8bb008d45f1eff187d462ed152e256731aba422bdcd198b1815f9d",
    ("split", 13, "N0"):
        "5f4dc6a2499ed08ec8a6d7093c071f9ae4a0cac8dfe74dedb5b8ff7b290aefd5",
    ("split", 13, "N1"):
        "5f4dc6a2499ed08ec8a6d7093c071f9ae4a0cac8dfe74dedb5b8ff7b290aefd5",
    ("split", 13, "N2"):
        "5f4dc6a2499ed08ec8a6d7093c071f9ae4a0cac8dfe74dedb5b8ff7b290aefd5",
    ("split", 13, "N3"):
        "5f4dc6a2499ed08ec8a6d7093c071f9ae4a0cac8dfe74dedb5b8ff7b290aefd5",
    ("split", 13, "N4"):
        "5f4dc6a2499ed08ec8a6d7093c071f9ae4a0cac8dfe74dedb5b8ff7b290aefd5",
    ("split", 13, "N5"):
        "5f4dc6a2499ed08ec8a6d7093c071f9ae4a0cac8dfe74dedb5b8ff7b290aefd5",
    ("split", 13, "N6"):
        "5f4dc6a2499ed08ec8a6d7093c071f9ae4a0cac8dfe74dedb5b8ff7b290aefd5",
    ("split", 13, "N7"):
        "5f4dc6a2499ed08ec8a6d7093c071f9ae4a0cac8dfe74dedb5b8ff7b290aefd5",
    ("split", 13, "N8"):
        "5f4dc6a2499ed08ec8a6d7093c071f9ae4a0cac8dfe74dedb5b8ff7b290aefd5",
    ("split", 13, "N9"):
        "5f4dc6a2499ed08ec8a6d7093c071f9ae4a0cac8dfe74dedb5b8ff7b290aefd5",
    ("split", 13, "N10"):
        "5f4dc6a2499ed08ec8a6d7093c071f9ae4a0cac8dfe74dedb5b8ff7b290aefd5",
    ("split", 13, "N11"):
        "5f4dc6a2499ed08ec8a6d7093c071f9ae4a0cac8dfe74dedb5b8ff7b290aefd5",
    ("split", 13, "N12"):
        "5f4dc6a2499ed08ec8a6d7093c071f9ae4a0cac8dfe74dedb5b8ff7b290aefd5",
}

FIELD_DIGESTS = {
    ("cubic:2", 3): {
        "mult": "9239c2bf30d64245a8b1e3d8b493dc0f48fbe4562433ef145f9e476513b01724",
        "unit": "9af871bff2a7bbe6faa04ccedd84cc13b76d7a6948b3b929d8f47d78cf109ce5",
        "comul": "46e8f4b567b8b1c00ff2f3f6057972854dddb0fce3c1ca1c12440fadaf73ed93",
        "counit": "83aa5056b0c1baedd305b446d50c96be9d2ea5bb369d3ae483bfd5338aff8b44",
        "antipode": "40ef14d528d6ffcbdc9cffffd2fd41b2e5e8bd13210c4a96cca59711f632dcc5",
        "basis": "d06ab910317c8aba0c2f077274b8a3c5fe19645c5a1e7ba903e9f3797e2d39b3",
        "report": "55e51a30979d3b5743a4d9537731b458521b1d0d9393906adb39e682763f9f07",
    },
    ("cubic:7", 3): {
        "mult": "e2e811b35892bd4352cb677c1b83d62f493fdaa9c4cbd5a21429472d34601243",
        "unit": "9af871bff2a7bbe6faa04ccedd84cc13b76d7a6948b3b929d8f47d78cf109ce5",
        "comul": "027ae84bdaefa60edc43fc8764ac1225f0c87ab5010a2b802ebc62d6345eb302",
        "counit": "83aa5056b0c1baedd305b446d50c96be9d2ea5bb369d3ae483bfd5338aff8b44",
        "antipode": "40ef14d528d6ffcbdc9cffffd2fd41b2e5e8bd13210c4a96cca59711f632dcc5",
        "basis": "d06ab910317c8aba0c2f077274b8a3c5fe19645c5a1e7ba903e9f3797e2d39b3",
        "report": "55e51a30979d3b5743a4d9537731b458521b1d0d9393906adb39e682763f9f07",
    },
    ("split", 3): {
        "mult": "ed847eb55ccea6fbcd317a891de6d70fc5f4ab30178978e6c49cc86df1fb0942",
        "unit": "9af871bff2a7bbe6faa04ccedd84cc13b76d7a6948b3b929d8f47d78cf109ce5",
        "comul": "3bc481c26251b553e50350861f052eb3e75988d407bee37dcf797f6d318e5a23",
        "counit": "28d957a3886dd75c86aa4bb7fc3117addf5f77cce4838bf0f855a5bf07673a98",
        "antipode": "a15d8b9f10ba8caa97fd96fec8f0df6f010d5b07105a3814732bc714d6cac720",
        "basis": "cabc00f92ba8dada29438baec9bedfbed0f74ffcb08cb975bf817182d220d278",
        "report": "55e51a30979d3b5743a4d9537731b458521b1d0d9393906adb39e682763f9f07",
    },
    ("split", 5): {
        "mult": "4977f4b47d7c9f6e704316c708685b300ea287eb8a7ef8a10c272dc04f84f915",
        "unit": "2f4bb44b645405b801a6faa1dffb2aa24f0b9202dd84ead474eb7d35d5f3d5c9",
        "comul": "a945a6e021da3b9472b1d257a8eaf6b8a654538f1f7a949c518a67c254965381",
        "counit": "63d3a548444df31cc780f73af771ad00a5e339be5b9bde999e51887b4be34d6c",
        "antipode": "5725465acb5da47b5058eb6544db1d9dd782ddef37a131b1f66cb13e1ce1066e",
        "basis": "fbaa97477bb1d653c05b363e41029f17a5f43f5f1af78d8e84d7e9a5f46dd00c",
        "report": "a2bf96946f45bf914de5dae1ca4d7a6cfb51c591cd402489380b681e49f86859",
    },
    ("split", 7): {
        "mult": "af0951796227e03a92733f921c2360bbbf41bcf22ac8dd751c869f8257340df0",
        "unit": "0b898cfed659a5a782ccde07603a875cd54e00abf400964d7e59aaec2c8d9687",
        "comul": "deb77191911a9f1f260c28a572da1b07726dc9020c980aa924f61db024f386e8",
        "counit": "0c77ff62a378c6ebfaffc1146d48f64ae7c2e4a8bc4913fd73edcf9dbfb8237c",
        "antipode": "15ec749fe5de2a2788290b5b700faa29fd923d54203eb48fec4e22b42af6bcb6",
        "basis": "572b51bf55643a076597f532cbf8b9de6212540a88604d2d34d87bc506ba6dad",
        "report": "7f420ed127690159abb599813b564fc77fde433c036d6ebf6aac907394d7bfbb",
    },
    ("split", 13): {
        "mult": "1e6a5fe93ecdca4e1bf4d245a62ec1281f00bc9ff84e67854891fc1265619e35",
        "unit": "f2570c6400b060c129c1ce3ad7460170159c44ea262133267bf4d353ed850ed8",
        "comul": "b76f72eeaf0518b806fc6a56e69680a4d6ae7e130dba20d742bf65ebae421bd8",
        "counit": "728e9359c93f0246e31940372873df333b123b6915bacba3379c58449421457d",
        "antipode": "ce99cf988aa8cd81454c7052ec0add83490effd6bf00661f15280ad248c32371",
        "basis": "da651e65b202318cccfe083534a8b997e9d16722c2e5f5b88903c1436aadf382",
        "report": "4e8e4413b69c5d7360077c40f3d2260b89f48c9cf9d6a7b53eb269fb62d90e51",
    },
}


def test_every_catalog_structure_of_every_model_is_pinned(answers):
    assert set(answers) == set(ANSWER_MODELS) == set(FIELD_DIGESTS)
    assert {(*model, label) for model, by_label in answers.items() for label in by_label} \
        == set(ANSWER_DIGESTS)


@pytest.mark.parametrize("key", list(ANSWER_DIGESTS), ids=lambda k: f"{k[0]}-p{k[1]}-{k[2]}")
def test_the_answer_keeps_its_digest(answers, key):
    field, p, label = key
    by_label = answers[field, p]
    if structure_digest(by_label[label]) != ANSWER_DIGESTS[key]:
        pytest.fail(f"{field} p = {p} {label}: the answer changed; fields changed over the "
                    f"model: {changed_fields((field, p), by_label) or 'none'}")


@pytest.mark.parametrize("model", ANSWER_MODELS, ids=lambda m: f"{m[0]}-p{m[1]}")
def test_each_field_keeps_its_digest_over_the_model(answers, model):
    assert changed_fields(model, answers[model]) == [], model


def _one_entry_changed(texts, H, report, field):
    """The texts of the answer with one entry of `field` changed."""
    def bumped(m):
        i = next(i for i in range(m.rows) if m.row_entries(i))
        j = min(j for j, _ in m.row_entries(i))
        return m + Matrix.from_entries(m.rows, m.cols, [(i, j, Q(1, 2))])

    out = dict(texts)
    if field == "unit":
        unit = list(H.unit)
        unit[0] += Q(1, 2)
        out["unit"] = " ".join(map(str, unit))
    elif field == "report":
        first, *rest = report
        out["report"] = _texts(H, [first._replace(passed=not first.passed), *rest])["report"]
    else:
        m = H.provenance.basis if field == "basis" else getattr(H, field)
        out[field] = _matrix_text(bumped(m))
    return out


@pytest.mark.parametrize("field", FIELDS)
def test_a_one_entry_change_to_any_field_is_named(batteries, answers, field):
    """For every structure of cubic:2 and split p = 5, one changed entry of
    one field changes its digest, and the field digests name that field and
    no other."""
    for model in (("cubic:2", 3), ("split", 5)):
        for label, b in batteries[model].items():
            texts = _one_entry_changed(answers[model][label], b.H, b.report, field)
            assert texts[field] != answers[model][label][field], (model, label)
            assert structure_digest(texts) != ANSWER_DIGESTS[(*model, label)], (model, label)
            assert changed_fields(model, {**answers[model], label: texts}) == [field], \
                (model, label)
