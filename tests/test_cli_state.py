"""A state machine over the CLI's file-writing commands, run through ``cli.main``.

Every run starts from a simulated frame and its pad-unified copy. Each rule
runs one command on files that earlier steps wrote into one temp directory,
and the model holds what every written file should be: the library calls
that make its image, and its pad record. After each step every file must
load and equal its model. ``disunify`` must exit 0 exactly when the
model holds a record for its input, and otherwise exit 1 with one stderr line.
A command the library refuses must exit 1 with one stderr line and write no
file. Frames stay at most 16x20, so a run takes seconds.
"""

import contextlib
import io
import shutil
import tempfile
from pathlib import Path

from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    Bundle, RuleBasedStateMachine, initialize, invariant, multiple, rule,
)

from bayerkit import (
    AugPlan,
    BayerPattern,
    DenoiserSpec,
    HFlip,
    apply_plan,
    denoise_pipeline,
    disunify_crop,
    gen_scene,
    load_raw,
    mosaic,
    unify_crop,
    unify_pad,
)
from bayerkit.cli import main
from bayerkit.errors import BayerKitError

from conftest import assert_same_image

patterns = st.sampled_from(list(BayerPattern))


class FileCommands(RuleBasedStateMachine):
    files = Bundle("files")

    def __init__(self):
        super().__init__()
        self.dir = Path(tempfile.mkdtemp())
        self.model = {}  # file name -> (image, pad record)

    def teardown(self):
        shutil.rmtree(self.dir)

    def _run(self, argv, expect):
        """Run ``bayerkit argv -o <new file>``; ``expect()`` is its model, None if refused."""
        name = f"f{len(self.model)}.pgm"
        stderr = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            code = main([*argv, "-o", self._path(name)])
        try:
            model = expect()
        except BayerKitError:
            model = None
        if model is None:
            err = stderr.getvalue()
            assert code == 1 and err.count("\n") == 1 and err.startswith("bayerkit: error: "), err
            assert not (self.dir / name).exists()
            return multiple()
        assert code == 0, stderr.getvalue()
        self.model[name] = model
        return name

    def _path(self, name):
        return str(self.dir / name)

    @initialize(target=files, pattern=patterns, target_pattern=patterns,
                seed=st.integers(0, 2**32))
    def padded_frame(self, pattern, target_pattern, seed):
        """Start from a simulated frame and its pad-unified copy, the paper's inference input."""
        src = self.simulate(pattern, 4, 5, seed)
        return multiple(src, self.unify_by_pad(src, target_pattern))

    @rule(target=files, pattern=patterns, height=st.integers(4, 8), width=st.integers(4, 10),
          seed=st.integers(0, 2**32))
    def simulate(self, pattern, height, width, seed):
        h, w = 2 * height, 2 * width
        argv = ["simulate", "--pattern", pattern.value, "--size", f"{h}x{w}", "--seed", str(seed)]
        return self._run(argv, lambda: (mosaic(gen_scene(seed, h, w), pattern), None))

    @rule(target=files, src=files, target_pattern=patterns)
    def unify_by_crop(self, src, target_pattern):
        img, _ = self.model[src]
        argv = ["unify", "--target", target_pattern.value, "--mode", "crop", self._path(src)]
        return self._run(argv, lambda: (unify_crop(img, target_pattern), None))

    @rule(target=files, src=files, target_pattern=patterns)
    def unify_by_pad(self, src, target_pattern):
        img, _ = self.model[src]
        argv = ["unify", "--target", target_pattern.value, "--mode", "pad", self._path(src)]
        return self._run(argv, lambda: unify_pad(img, target_pattern))

    @rule(target=files, src=files, spec=st.sampled_from(["identity", "gaussian:1.0", "median:1"]),
          work=patterns)
    def denoise(self, src, spec, work):
        img, pad = self.model[src]
        argv = ["denoise", "--filter", spec, "--work-pattern", work.value, self._path(src)]
        return self._run(argv, lambda: (denoise_pipeline(img, work, DenoiserSpec.parse(spec)), pad))

    @rule(target=files, src=files)
    def disunify(self, src):
        img, pad = self.model[src]
        result = self._run(["disunify", self._path(src)],
                           lambda: None if pad is None else (disunify_crop(img, pad), None))
        assert isinstance(result, str) == (pad is not None)
        return result

    @rule(target=files, src=files)
    def augment_hflip(self, src):
        img, _ = self.model[src]
        argv = ["augment", "--hflip", self._path(src)]
        return self._run(argv, lambda: (apply_plan(img, AugPlan((HFlip(),))), None))

    @invariant()
    def every_file_equals_its_model(self):
        for name, (expected, pad) in self.model.items():
            loaded, record = load_raw(self.dir / name)
            assert_same_image(loaded, expected)
            assert record == pad, name


FileCommands.TestCase.settings = settings(max_examples=25, stateful_step_count=10, deadline=None)
TestFileCommands = FileCommands.TestCase
