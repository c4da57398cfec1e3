"""Page-fault guard: ``backward`` frees each step's graph, tens of MiB at the
train-wide benchmark shapes, and ``tasks.train`` asks glibc to keep the
freed heap mapped. Without that, glibc trims the heap after every step and
the next forward faults it back in. The guard reads ``getrusage`` minor
faults of this process over steps 6-15 of a train-wide ``tasks.train`` run:
on a 2-vCPU Linux guest (glibc, numpy 2.4) about 20 a step with the
setting, about 7.8k without it, and 1.2k when the graph was still kept
until the next step."""
import platform

import pytest

from avfuse import tasks
from avfuse.model import ModelConfig, TwoStreamModel

resource = pytest.importorskip("resource")

MAX_FAULTS_PER_STEP = 2000


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the heap setting is glibc's")
def test_train_wide_steps_do_not_fault_the_heap_back_in(monkeypatch):
    cfg = ModelConfig(width=128, image_hw=(32, 32), spec_hw=(32, 32), latent_count=4)
    model = TwoStreamModel(cfg, seed=0)
    train_set = tasks.generate_dataset(0, 16, 0.1, cfg.image_hw, cfg.spec_hw)
    test_set = tasks.generate_dataset(1, 4, 0.1, cfg.image_hw, cfg.spec_hw)
    faults = []
    real_step = tasks.Adam.step

    def step(opt):
        real_step(opt)
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt)

    monkeypatch.setattr(tasks.Adam, "step", step)
    tasks.train(model, train_set, test_set, tasks.TrainConfig(steps=15, batch_size=8))
    per_step = (faults[14] - faults[4]) / 10
    print(f"minor faults per step over steps 6-15: {per_step:.0f}")
    assert per_step <= MAX_FAULTS_PER_STEP
