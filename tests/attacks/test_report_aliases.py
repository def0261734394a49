"""The consolidated result type: exports, stats, and search primitives."""

import numpy as np

from repro.video.types import Video


class TestImportability:
    def test_package_exports(self):
        import repro.attacks as attacks

        for name in ("AttackReport", "AttackConfig", "build_attack",
                     "ComposedAttack", "ATTACK_STRATEGIES"):
            assert hasattr(attacks, name), name


class TestAliases:
    def make_report(self, **kwargs):
        from repro.attacks.report import AttackReport

        video = Video(np.zeros((2, 4, 4, 3)))
        return AttackReport(adversarial=video,
                            perturbation=np.zeros((2, 4, 4, 3)), **kwargs)

    def test_stats_summarize_the_perturbation(self):
        report = self.make_report()
        stats = report.stats
        assert stats.linf == 0.0


class TestSearchPrimitivesReturnReports:
    def test_simba_returns_report_not_tuple(self):
        from repro.attacks.objective import RetrievalObjective
        from repro.attacks.report import AttackReport
        from repro.attacks.search import simba_search
        from repro.attacks.vanilla import random_support
        from repro.qa.world import build_world

        world = build_world(54, cache_size=0)
        objective = RetrievalObjective(world.service, world.original,
                                       world.target)
        support = random_support(world.original.pixels.shape, 20, 2, rng=3)
        report = simba_search(world.original, objective, support, tau=0.1,
                              iterations=2, rng=3)
        assert isinstance(report, AttackReport)
        assert report.queries == len(report.trace)
