"""Golden corpus: the bytes every CLI subcommand produces must not move.

A fixed sequence of ``bayerkit`` invocations runs in one scratch directory on
64x96 inputs that the sequence itself simulates, plus one 260x200 input whose
padded planes span several Gaussian and median row strips and whose rows span
several demosaic and metric row strips; a 258x198 crop of it leaves the demosaic
a one-plane-row tail strip. One 24x1400 pair spans several SSIM column tiles.
For each invocation the test pins the exit code, the sha256 of the captured
stdout, and the sha256 of every file the invocation wrote (PGM, sidecar, PPM).
Refactors and optimisations of the library are gated by these hashes: a change
that moves one output byte is a behaviour change, and has to say so by
re-recording the corpus.

Paths are relative to the scratch directory, because some commands echo
their input path on stdout.
"""

import contextlib
import hashlib
import io
from pathlib import Path

import pytest

from bayerkit.cli import main

PATTERNS = ("RGGB", "BGGR", "GRBG", "GBRG")

PLAN_JSON = (
    '{"seed": 3, "steps": [{"op": "vflip"}, {"op": "transpose"},\n'
    ' {"op": "patch", "top": 4, "left": 2, "height": 40, "width": 52}]}\n'
)

# (case id, argv), run in this order; later cases read earlier cases' outputs
CASES = [
    *(
        (f"simulate-{p}", ["simulate", "--pattern", p, "--size", "64x96", "--seed", str(i),
                           "--noise", "0.02,0.04", "--noise-seed", str(10 + i),
                           "-o", f"noisy_{p}.pgm", "--clean", f"clean_{p}.pgm"])
        for i, p in enumerate(PATTERNS)
    ),
    ("simulate-clean-only", ["simulate", "--pattern", "GRBG", "--size", "64x96",
                             "--seed", "9", "-o", "plain.pgm"]),
    ("unify-crop-GRBG-RGGB", ["unify", "--target", "RGGB", "--mode", "crop",
                              "noisy_GRBG.pgm", "-o", "crop_RGGB.pgm"]),
    ("unify-crop-BGGR-GBRG", ["unify", "--target", "GBRG", "--mode", "crop",
                              "noisy_BGGR.pgm", "-o", "crop_GBRG.pgm"]),
    ("unify-pad-GBRG-RGGB", ["unify", "--target", "RGGB", "--mode", "pad",
                             "noisy_GBRG.pgm", "-o", "pad_RGGB.pgm"]),
    ("unify-pad-RGGB-BGGR", ["unify", "--target", "BGGR", "--mode", "pad",
                             "noisy_RGGB.pgm", "-o", "pad_BGGR.pgm"]),
    ("unify-pad-same-pattern", ["unify", "--target", "GRBG", "--mode", "pad",
                                "noisy_GRBG.pgm", "-o", "pad_GRBG.pgm"]),
    ("disunify-RGGB", ["disunify", "pad_RGGB.pgm", "-o", "back_GBRG.pgm"]),
    ("disunify-BGGR", ["disunify", "pad_BGGR.pgm", "-o", "back_RGGB.pgm"]),
    ("disunify-no-pad", ["disunify", "crop_RGGB.pgm", "-o", "never.pgm"]),
    ("augment-flags-RGGB", ["augment", "--hflip", "--vflip", "--transpose",
                            "--patch", "2,4,32,48", "noisy_RGGB.pgm", "-o", "aug_flags_RGGB.pgm"]),
    ("augment-flags-GRBG", ["augment", "--hflip", "--patch", "0,2,40,40",
                            "noisy_GRBG.pgm", "-o", "aug_flags_GRBG.pgm"]),
    ("augment-vflip-GBRG", ["augment", "--vflip", "noisy_GBRG.pgm", "-o", "aug_vflip_GBRG.pgm"]),
    ("augment-seed-BGGR", ["augment", "--seed", "5", "--patch-size", "32",
                           "noisy_BGGR.pgm", "-o", "aug_seed_BGGR.pgm"]),
    ("augment-seed-GBRG", ["augment", "--seed", "6", "--patch-size", "24",
                           "noisy_GBRG.pgm", "-o", "aug_seed_GBRG.pgm"]),
    ("augment-plan-RGGB", ["augment", "--plan", "plan.json", "noisy_RGGB.pgm",
                           "-o", "aug_plan_RGGB.pgm"]),
    ("augment-illegal-transpose", ["augment", "--transpose", "noisy_GRBG.pgm",
                                   "-o", "never.pgm"]),
    ("denoise-identity-RGGB", ["denoise", "--filter", "identity", "--work-pattern", "RGGB",
                               "noisy_GRBG.pgm", "-o", "den_identity_RGGB.pgm"]),
    ("denoise-identity-GRBG", ["denoise", "--filter", "identity", "--work-pattern", "GRBG",
                               "noisy_GRBG.pgm", "-o", "den_identity_GRBG.pgm"]),
    ("denoise-gaussian-BGGR", ["denoise", "--filter", "gaussian:1.0", "--work-pattern", "BGGR",
                               "noisy_GBRG.pgm", "-o", "den_gaussian_BGGR.pgm"]),
    ("denoise-gaussian-GBRG", ["denoise", "--filter", "gaussian:1.0", "--work-pattern", "GBRG",
                               "noisy_GBRG.pgm", "-o", "den_gaussian_GBRG.pgm"]),
    ("denoise-median1-GRBG", ["denoise", "--filter", "median:1", "--work-pattern", "GRBG",
                              "noisy_BGGR.pgm", "-o", "den_median1_GRBG.pgm"]),
    ("denoise-median1-BGGR", ["denoise", "--filter", "median:1", "--work-pattern", "BGGR",
                              "noisy_BGGR.pgm", "-o", "den_median1_BGGR.pgm"]),
    ("denoise-median2-GBRG", ["denoise", "--filter", "median:2", "--work-pattern", "GBRG",
                              "noisy_RGGB.pgm", "-o", "den_median2_GBRG.pgm"]),
    ("denoise-median2-RGGB", ["denoise", "--filter", "median:2", "--work-pattern", "RGGB",
                              "noisy_RGGB.pgm", "-o", "den_median2_RGGB.pgm"]),
    # 260x200 pads to planes of 131 rows: two full 64-row Gaussian strips and a partial one
    ("simulate-strips-GBRG", ["simulate", "--pattern", "GBRG", "--size", "260x200", "--seed", "4",
                              "--noise", "0.02,0.04", "--noise-seed", "14", "-o", "big_GBRG.pgm"]),
    ("denoise-gaussian-strips-GRBG", ["denoise", "--filter", "gaussian:1.0", "--work-pattern",
                                      "GRBG", "big_GBRG.pgm", "-o", "den_big_GRBG.pgm"]),
    ("denoise-gaussian-strips-RGGB", ["denoise", "--filter", "gaussian:1.0", "--work-pattern",
                                      "RGGB", "big_GBRG.pgm", "-o", "den_big_RGGB.pgm"]),
    ("denoise-gaussian-strips-GBRG", ["denoise", "--filter", "gaussian:1.0", "--work-pattern",
                                      "GBRG", "big_GBRG.pgm", "-o", "den_big_GBRG.pgm"]),
    # the median on the same 130-row planes: two 64-row strips and a 2-row tail, with a row
    # halo (RGGB), then a row and a column halo (GRBG)
    ("denoise-median1-strips-RGGB", ["denoise", "--filter", "median:1", "--work-pattern", "RGGB",
                                     "big_GBRG.pgm", "-o", "den_big_median1_RGGB.pgm"]),
    ("denoise-median2-strips-GRBG", ["denoise", "--filter", "median:2", "--work-pattern", "GRBG",
                                     "big_GBRG.pgm", "-o", "den_big_median2_GRBG.pgm"]),
    ("denoise-bad-filter", ["denoise", "--filter", "median:3", "--work-pattern", "RGGB",
                            "noisy_RGGB.pgm", "-o", "never.pgm"]),
    ("demosaic-GRBG", ["demosaic", "noisy_GRBG.pgm", "-o", "rgb_GRBG.ppm"]),
    ("demosaic-BGGR", ["demosaic", "clean_BGGR.pgm", "-o", "rgb_BGGR.ppm"]),
    # 260 rows: four full 64-row demosaic strips and a 4-row tail
    ("demosaic-strips-GBRG", ["demosaic", "big_GBRG.pgm", "-o", "rgb_big_GBRG.ppm"]),
    ("demosaic-strips-GRBG", ["demosaic", "den_big_GRBG.pgm", "-o", "rgb_den_big_GRBG.ppm"]),
    # 258 rows, 129 plane rows: two full 64-plane-row strips and a one-plane-row tail
    ("unify-crop-strips-GBRG-GRBG", ["unify", "--target", "GRBG", "--mode", "crop",
                                     "big_GBRG.pgm", "-o", "crop_big_GRBG.pgm"]),
    ("demosaic-strips-tail-GRBG", ["demosaic", "crop_big_GRBG.pgm", "-o", "rgb_crop_big_GRBG.ppm"]),
    ("metrics-noisy-RGGB", ["metrics", "--ref", "clean_RGGB.pgm", "noisy_RGGB.pgm"]),
    ("metrics-denoised-GBRG", ["metrics", "--ref", "clean_GBRG.pgm", "den_gaussian_BGGR.pgm"]),
    ("metrics-median-BGGR", ["metrics", "--ref", "clean_BGGR.pgm", "den_median1_GRBG.pgm"]),
    # 260 rows: four full 64-row metric strips and a 4-row tail that holds no SSIM window
    ("metrics-strips-GBRG", ["metrics", "--ref", "big_GBRG.pgm", "den_big_GRBG.pgm"]),
    # 1,400 columns: 1,390 window columns, which SSIM cuts into tiles of 620, 620 and 150
    ("simulate-wide-RGGB", ["simulate", "--pattern", "RGGB", "--size", "24x1400", "--seed", "7",
                            "--noise", "0.02,0.04", "--noise-seed", "17", "-o", "wide_noisy.pgm",
                            "--clean", "wide_clean.pgm"]),
    ("metrics-wide-RGGB", ["metrics", "--ref", "wide_clean.pgm", "wide_noisy.pgm"]),
    ("pack-roundtrip-GBRG", ["pack-roundtrip", "noisy_GBRG.pgm"]),
    ("pack-roundtrip-padded", ["pack-roundtrip", "pad_RGGB.pgm"]),
    ("baseline-demo", ["baseline-demo", "--seed", "0"]),
]

# case id -> (exit code, sha256 of stdout, {file written: sha256})
EXPECTED = {
    "simulate-RGGB": (0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", {
        "clean_RGGB.json": "8501c076e1e27393854223b70c2f0d1919fae0a8ae297e1d41427f17b5a9921d",
        "clean_RGGB.pgm": "3f53135d02ef02fc8e16562434c3b424614652cda3e36700cac06605f433394b",
        "noisy_RGGB.json": "8501c076e1e27393854223b70c2f0d1919fae0a8ae297e1d41427f17b5a9921d",
        "noisy_RGGB.pgm": "81aad56bcbe4a28b5af95284c3877b316468384bdba3265aa1d784afb1bc330e",
    }),
    "simulate-BGGR": (0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", {
        "clean_BGGR.json": "e2cc4a0037e9fce31a31b66f5ac2dea96f37d3105b5ee35f6b7bcc2ca4dcad46",
        "clean_BGGR.pgm": "a3169462bd46b5f49a38f229aaf85c26ff41b068fa03432af26d9cd35063857e",
        "noisy_BGGR.json": "e2cc4a0037e9fce31a31b66f5ac2dea96f37d3105b5ee35f6b7bcc2ca4dcad46",
        "noisy_BGGR.pgm": "1abd17ad50c19ef6edfd815679e4d02dcfac2673254c06c3aff1596c1393ec6a",
    }),
    "simulate-GRBG": (0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", {
        "clean_GRBG.json": "18952f2da070e0dd1ad3234e31bff51657905e47c45cedc38b66310bc4a25839",
        "clean_GRBG.pgm": "7dfec885c6f271c9091ee86f65aad6da84d538e5f80efdaac8d3af7ae244cb7f",
        "noisy_GRBG.json": "18952f2da070e0dd1ad3234e31bff51657905e47c45cedc38b66310bc4a25839",
        "noisy_GRBG.pgm": "85f94f6cebef5817604c9d7d71e74e54d9e08505ade05eea77ae7f14b37bbdee",
    }),
    "simulate-GBRG": (0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", {
        "clean_GBRG.json": "2067f86d0814877ac4edfc8ee9fa3ec24cfa28993ab02f014c635b31df15a703",
        "clean_GBRG.pgm": "fbe9be2b40a8ca9be01c0cd4348ce5d183f67e731c3d54e0679528dd6e6e2297",
        "noisy_GBRG.json": "2067f86d0814877ac4edfc8ee9fa3ec24cfa28993ab02f014c635b31df15a703",
        "noisy_GBRG.pgm": "938b602d60cc7b05ae0ef5767a6b8e93fae91a2a4c444002b16965d55c5cc9fa",
    }),
    "simulate-clean-only": (0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", {
        "plain.json": "18952f2da070e0dd1ad3234e31bff51657905e47c45cedc38b66310bc4a25839",
        "plain.pgm": "94cb0db9cb00e6e1de509ca6fa87a62806e9dfe170c8b76ddb57b4b1a52e4af0",
    }),
    "unify-crop-GRBG-RGGB": (0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", {
        "crop_RGGB.json": "8501c076e1e27393854223b70c2f0d1919fae0a8ae297e1d41427f17b5a9921d",
        "crop_RGGB.pgm": "ccc1d996688ba8afd9cf009eca680d522c84f31ee56ef495adcb81980d830e37",
    }),
    "unify-crop-BGGR-GBRG": (0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", {
        "crop_GBRG.json": "2067f86d0814877ac4edfc8ee9fa3ec24cfa28993ab02f014c635b31df15a703",
        "crop_GBRG.pgm": "aaa50446781fec3cdfd7d383b2e66dd3988d14c7130ce6f56e2ef3c08aee1c97",
    }),
    "unify-pad-GBRG-RGGB": (0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", {
        "pad_RGGB.json": "50a78d47a4410fbcba1870a90e940dc1acfcdc89ae56b9a80b55e738c7f883c7",
        "pad_RGGB.pgm": "8f77fb3935fdc3f1ff98c5f78c9402438d22b4c441eb7e70e079b9a1627038ae",
    }),
    "unify-pad-RGGB-BGGR": (0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", {
        "pad_BGGR.json": "ada913d75ad0f0d3d3c707bebd7631a05f6e1bfbf5bb4e22e06c68c3ac4163bf",
        "pad_BGGR.pgm": "1abe0cc38d2c9e921f1aabad30bb91fba521ea849d096f53a43ba9bf70c70edc",
    }),
    "unify-pad-same-pattern": (0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", {
        "pad_GRBG.json": "eb82be54c62c58214ea0508992fe834a545244762bd1d99e497617a7ec8fb81f",
        "pad_GRBG.pgm": "85f94f6cebef5817604c9d7d71e74e54d9e08505ade05eea77ae7f14b37bbdee",
    }),
    "disunify-RGGB": (0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", {
        "back_GBRG.json": "2067f86d0814877ac4edfc8ee9fa3ec24cfa28993ab02f014c635b31df15a703",
        "back_GBRG.pgm": "938b602d60cc7b05ae0ef5767a6b8e93fae91a2a4c444002b16965d55c5cc9fa",
    }),
    "disunify-BGGR": (0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", {
        "back_RGGB.json": "8501c076e1e27393854223b70c2f0d1919fae0a8ae297e1d41427f17b5a9921d",
        "back_RGGB.pgm": "81aad56bcbe4a28b5af95284c3877b316468384bdba3265aa1d784afb1bc330e",
    }),
    "disunify-no-pad": (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", {
    }),
    "augment-flags-RGGB": (0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", {
        "aug_flags_RGGB.json": "8501c076e1e27393854223b70c2f0d1919fae0a8ae297e1d41427f17b5a9921d",
        "aug_flags_RGGB.pgm": "5651b903da8cdd79e780b8766f981e5c295df1f571718ab4818ac733817aba9f",
    }),
    "augment-flags-GRBG": (0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", {
        "aug_flags_GRBG.json": "18952f2da070e0dd1ad3234e31bff51657905e47c45cedc38b66310bc4a25839",
        "aug_flags_GRBG.pgm": "b5c12bc4d708ace482ef0201997bc499bbc615914b0ed3d7e0b432d70f7a86d5",
    }),
    "augment-vflip-GBRG": (0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", {
        "aug_vflip_GBRG.json": "2067f86d0814877ac4edfc8ee9fa3ec24cfa28993ab02f014c635b31df15a703",
        "aug_vflip_GBRG.pgm": "6db20d4e3ab8426f86c740e5f6d7e44b28f99c65105b0051fc6f10e48500d47d",
    }),
    "augment-seed-BGGR": (0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", {
        "aug_seed_BGGR.json": "e2cc4a0037e9fce31a31b66f5ac2dea96f37d3105b5ee35f6b7bcc2ca4dcad46",
        "aug_seed_BGGR.pgm": "3832e9c88d1d88aa3c51d36397de3a75f6f6503a744053969f514188e6e37526",
    }),
    "augment-seed-GBRG": (0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", {
        "aug_seed_GBRG.json": "2067f86d0814877ac4edfc8ee9fa3ec24cfa28993ab02f014c635b31df15a703",
        "aug_seed_GBRG.pgm": "738193a7db826b1fa72a57b8aa1142ac2084d81fc0ec8d4ff2e36826782d48f7",
    }),
    "augment-plan-RGGB": (0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", {
        "aug_plan_RGGB.json": "8501c076e1e27393854223b70c2f0d1919fae0a8ae297e1d41427f17b5a9921d",
        "aug_plan_RGGB.pgm": "512ae2d8e1bf41628172644f06671d3a09d8a4c65895dab8a61a771621cee276",
    }),
    "augment-illegal-transpose": (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", {
    }),
    "denoise-identity-RGGB": (0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", {
        "den_identity_RGGB.json": "18952f2da070e0dd1ad3234e31bff51657905e47c45cedc38b66310bc4a25839",
        "den_identity_RGGB.pgm": "85f94f6cebef5817604c9d7d71e74e54d9e08505ade05eea77ae7f14b37bbdee",
    }),
    "denoise-identity-GRBG": (0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", {
        "den_identity_GRBG.json": "18952f2da070e0dd1ad3234e31bff51657905e47c45cedc38b66310bc4a25839",
        "den_identity_GRBG.pgm": "85f94f6cebef5817604c9d7d71e74e54d9e08505ade05eea77ae7f14b37bbdee",
    }),
    "denoise-gaussian-BGGR": (0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", {
        "den_gaussian_BGGR.json": "2067f86d0814877ac4edfc8ee9fa3ec24cfa28993ab02f014c635b31df15a703",
        "den_gaussian_BGGR.pgm": "18b8b43ef4034c9dc2a5b3e072f1ae28883e06f149a9c6db754c3b6fd0303edb",
    }),
    "denoise-gaussian-GBRG": (0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", {
        "den_gaussian_GBRG.json": "2067f86d0814877ac4edfc8ee9fa3ec24cfa28993ab02f014c635b31df15a703",
        "den_gaussian_GBRG.pgm": "18b8b43ef4034c9dc2a5b3e072f1ae28883e06f149a9c6db754c3b6fd0303edb",
    }),
    "denoise-median1-GRBG": (0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", {
        "den_median1_GRBG.json": "e2cc4a0037e9fce31a31b66f5ac2dea96f37d3105b5ee35f6b7bcc2ca4dcad46",
        "den_median1_GRBG.pgm": "fc54261e803a72179676ea7872307b848b305bfdc86939e359ca97d228e67b9e",
    }),
    "denoise-median1-BGGR": (0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", {
        "den_median1_BGGR.json": "e2cc4a0037e9fce31a31b66f5ac2dea96f37d3105b5ee35f6b7bcc2ca4dcad46",
        "den_median1_BGGR.pgm": "6381fc6a749c5cd124010370cbe88cc6d4f0a130a31448fe3d741f15771c5aa2",
    }),
    "denoise-median2-GBRG": (0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", {
        "den_median2_GBRG.json": "8501c076e1e27393854223b70c2f0d1919fae0a8ae297e1d41427f17b5a9921d",
        "den_median2_GBRG.pgm": "8a24a32c28806775301d17020c562d6b630bf8a3ce1d4f6ba6d7d9a85880bb41",
    }),
    "denoise-median2-RGGB": (0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", {
        "den_median2_RGGB.json": "8501c076e1e27393854223b70c2f0d1919fae0a8ae297e1d41427f17b5a9921d",
        "den_median2_RGGB.pgm": "00d3875369f2e37963eef92470e8a07981b043da2d02f0088b96444b4ca178a3",
    }),
    "simulate-strips-GBRG": (0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", {
        "big_GBRG.json": "2067f86d0814877ac4edfc8ee9fa3ec24cfa28993ab02f014c635b31df15a703",
        "big_GBRG.pgm": "75c09e004109f30c403f0f8f3176933b42bd518510327534db02d76f313451ae",
    }),
    "denoise-gaussian-strips-GRBG": (0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", {
        "den_big_GRBG.json": "2067f86d0814877ac4edfc8ee9fa3ec24cfa28993ab02f014c635b31df15a703",
        "den_big_GRBG.pgm": "bdf320e5f7df1ef62e53c8869bf4d040c5dbb53b826c72ff4f97c3b8c7d5d7ec",
    }),
    "denoise-gaussian-strips-RGGB": (0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", {
        "den_big_RGGB.json": "2067f86d0814877ac4edfc8ee9fa3ec24cfa28993ab02f014c635b31df15a703",
        "den_big_RGGB.pgm": "bdf320e5f7df1ef62e53c8869bf4d040c5dbb53b826c72ff4f97c3b8c7d5d7ec",
    }),
    "denoise-gaussian-strips-GBRG": (0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", {
        "den_big_GBRG.json": "2067f86d0814877ac4edfc8ee9fa3ec24cfa28993ab02f014c635b31df15a703",
        "den_big_GBRG.pgm": "bdf320e5f7df1ef62e53c8869bf4d040c5dbb53b826c72ff4f97c3b8c7d5d7ec",
    }),
    "denoise-median1-strips-RGGB": (0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", {
        "den_big_median1_RGGB.json": "2067f86d0814877ac4edfc8ee9fa3ec24cfa28993ab02f014c635b31df15a703",
        "den_big_median1_RGGB.pgm": "77833f227106042f8320241b967b25cc44e7bad6de00e68a977883b557bf1be3",
    }),
    "denoise-median2-strips-GRBG": (0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", {
        "den_big_median2_GRBG.json": "2067f86d0814877ac4edfc8ee9fa3ec24cfa28993ab02f014c635b31df15a703",
        "den_big_median2_GRBG.pgm": "a2355afecf78fd60e175a459855cb9bdf03a96fb2cbc84dfc7a6814e9004182f",
    }),
    "denoise-bad-filter": (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", {
    }),
    "demosaic-GRBG": (0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", {
        "rgb_GRBG.ppm": "c652e43635d5cd9e8d44f9bab52bc5a0618b672b894b85f9bad1dbdd60715309",
    }),
    "demosaic-BGGR": (0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", {
        "rgb_BGGR.ppm": "c4444ebd9944c9308d910f48178c3eff9363595ca326b7536d35520f0676e4d2",
    }),
    "demosaic-strips-GBRG": (0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", {
        "rgb_big_GBRG.ppm": "21665cee319fab1f638d1f5a226562c4fa442f8f9791fbaeb6576a10e15d6ecd",
    }),
    "demosaic-strips-GRBG": (0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", {
        "rgb_den_big_GRBG.ppm": "97c3a213dbedd9a71c165273e6c8825a4d3ba75a729afc5f305e2c57f485229f",
    }),
    "unify-crop-strips-GBRG-GRBG": (0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", {
        "crop_big_GRBG.json": "18952f2da070e0dd1ad3234e31bff51657905e47c45cedc38b66310bc4a25839",
        "crop_big_GRBG.pgm": "7980a9ed8c75bd2db8a34839bb84dc4b16c24f509cc47ca41d004bd421380413",
    }),
    "demosaic-strips-tail-GRBG": (0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", {
        "rgb_crop_big_GRBG.ppm": "dde5b0e449579d8646203ee76873fe76acabe61fe8c5a5a00e55c79f7c921ba0",
    }),
    "metrics-noisy-RGGB": (0, "bdd868d3bbba86441980edc25cc57889309d309241f178ba167b793aafef3623", {
    }),
    "metrics-denoised-GBRG": (0, "24fd171c3b1ecfa2bbd4f90aa8b7c959cd9c7be3343118b301d67c0fdf32982f", {
    }),
    "metrics-median-BGGR": (0, "830fb4e1771d7c1ce42904f44b268e7be3dcbd2edfc6c7a4b933cbb7abfc9b83", {
    }),
    "metrics-strips-GBRG": (0, "95af780379e79d4e6cb2d72be2d1e9fa23bd8cd8740ea4ff2c3abf0163e3cb3c", {
    }),
    "simulate-wide-RGGB": (0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", {
        "wide_clean.json": "8501c076e1e27393854223b70c2f0d1919fae0a8ae297e1d41427f17b5a9921d",
        "wide_clean.pgm": "2eda3a6007187da3a62ec32b24326e0a8399cba13f7c8f9d7ea5d48405e783d9",
        "wide_noisy.json": "8501c076e1e27393854223b70c2f0d1919fae0a8ae297e1d41427f17b5a9921d",
        "wide_noisy.pgm": "92ffc84eb700e015c1da4edb31e619cfbc9c39a57fe9a740d091605b0a298910",
    }),
    "metrics-wide-RGGB": (0, "6d04a5eee35f96eb8b523e9416b44a62b97871bae473dadc4234548f2f8752e6", {
    }),
    "pack-roundtrip-GBRG": (0, "a35c4835372587ffe4d64966afa89e582ac479a8e6548ea2190a982f3f995768", {
    }),
    "pack-roundtrip-padded": (0, "f4c8317dbe9688e7c0777147ad04d58dde96eae6f863caa164908456728f3996", {
    }),
    "baseline-demo": (0, "cf713b58881e3d73ea122b13797eff527f990846087f390517b45f7b1121ac16", {
    }),
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _snapshot(d: Path) -> dict:
    return {p.name: _sha(p.read_bytes()) for p in sorted(d.iterdir())}


def run_corpus(d: Path) -> dict:
    """Run every case in directory ``d``; returns case id -> observed triple."""
    (d / "plan.json").write_text(PLAN_JSON)
    results = {}
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(d)
        for case_id, argv in CASES:
            before = _snapshot(d)
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                rc = main(argv)
            after = _snapshot(d)
            written = {n: h for n, h in after.items() if before.get(n) != h}
            results[case_id] = (rc, _sha(out.getvalue().encode()), written)
    return results


@pytest.fixture(scope="module")
def observed(tmp_path_factory):
    return run_corpus(tmp_path_factory.mktemp("golden"))


def test_corpus_covers_every_subcommand():
    from bayerkit.cli import build_parser

    sub = next(a for a in build_parser()._actions if a.dest == "command")
    assert {argv[0] for _, argv in CASES} == set(sub.choices)
    assert sorted(EXPECTED) == sorted(case_id for case_id, _ in CASES)


@pytest.mark.parametrize("case_id", [case_id for case_id, _ in CASES])
def test_golden_output(observed, case_id):
    assert observed[case_id] == EXPECTED[case_id]


def format_expected(results: dict) -> str:
    lines = ["EXPECTED = {"]
    for case_id, (rc, stdout_sha, written) in results.items():
        lines.append(f'    "{case_id}": ({rc}, "{stdout_sha}", {{')
        lines += [f'        "{name}": "{sha}",' for name, sha in written.items()]
        lines.append("    }),")
    return "\n".join(lines + ["}"])


if __name__ == "__main__":
    # Re-record: python tests/test_golden.py, then paste the printed block
    # over EXPECTED. Only do this for a deliberate change of output bytes.
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        print(format_expected(run_corpus(Path(tmp))))
