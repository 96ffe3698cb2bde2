"""Unit tests for the membership model (views, subgroup specs)."""

import pytest

from repro.core.membership import SubgroupSpec, View


class TestSubgroupSpec:
    def test_senders_default_to_members(self):
        spec = SubgroupSpec.of(0, [3, 1, 2])
        assert spec.senders == (3, 1, 2)

    def test_rank_follows_sender_order(self):
        spec = SubgroupSpec.of(0, [1, 2, 3], senders=[3, 1])
        assert spec.rank_of(3) == 0
        assert spec.rank_of(1) == 1
        assert spec.rank_of(2) is None

    def test_senders_must_be_members(self):
        with pytest.raises(ValueError, match="not subgroup members"):
            SubgroupSpec.of(0, [1, 2], senders=[9])

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError):
            SubgroupSpec.of(0, [1, 1, 2])
        with pytest.raises(ValueError):
            SubgroupSpec.of(0, [1, 2], senders=[1, 1])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            SubgroupSpec(0, (), (), 10, 100)

    def test_bad_window_and_size(self):
        with pytest.raises(ValueError):
            SubgroupSpec.of(0, [1], window=0)
        with pytest.raises(ValueError):
            SubgroupSpec.of(0, [1], message_size=0)


class TestView:
    def make_view(self):
        return View(
            view_id=0,
            members=(0, 1, 2, 3, 4),
            subgroups=(
                SubgroupSpec.of(0, [0, 1, 2]),
                SubgroupSpec.of(1, [0, 1, 3], senders=[0, 1]),
                SubgroupSpec.of(2, [0, 2, 4]),
            ),
        )

    def test_table1_structure(self):
        """The paper's Table 1 example: 5 nodes, 3 overlapping subgroups."""
        view = self.make_view()
        assert view.leader == 0
        assert view.rank_of(3) == 3
        assert view.subgroups[1].rank_of(3) is None  # node 3 not a sender

    def test_subgroup_members_must_be_in_view(self):
        with pytest.raises(ValueError, match="not in view"):
            View(0, (0, 1), (SubgroupSpec.of(0, [0, 5]),))

    def test_duplicate_subgroup_ids_rejected(self):
        with pytest.raises(ValueError, match="duplicate subgroup ids"):
            View(0, (0, 1), (SubgroupSpec.of(0, [0]), SubgroupSpec.of(0, [1])))

    def test_without_removes_failed_everywhere(self):
        view = self.make_view()
        succ = view.without([2])
        assert succ.view_id == 1
        assert succ.members == (0, 1, 3, 4)
        assert succ.subgroups[0].members == (0, 1)
        assert succ.departed == (2,)

    def test_without_preserves_sender_order(self):
        view = View(0, (0, 1, 2, 3),
                    (SubgroupSpec.of(0, [0, 1, 2, 3], senders=[3, 1, 0]),))
        succ = view.without([1])
        assert succ.subgroups[0].senders == (3, 0)

    def test_without_drops_empty_subgroup(self):
        view = View(0, (0, 1, 2), (SubgroupSpec.of(0, [2]),
                                   SubgroupSpec.of(1, [0, 1])))
        succ = view.without([2])
        assert [sg.subgroup_id for sg in succ.subgroups] == [1]

    def test_without_promotes_member_if_all_senders_fail(self):
        view = View(0, (0, 1, 2), (SubgroupSpec.of(0, [0, 1, 2], senders=[2]),))
        succ = view.without([2])
        assert succ.subgroups[0].senders == (0,)

    def test_cannot_empty_the_view(self):
        view = View(0, (0,), (SubgroupSpec.of(0, [0]),))
        with pytest.raises(ValueError):
            view.without([0])

    def test_leader_changes_when_head_fails(self):
        view = self.make_view()
        assert view.without([0]).leader == 1


class TestDesignatedSender:
    """The service planes' subgroup shape (docs/SHARDING.md): one
    sender, recorded on the spec so it survives every view change."""

    def shard_view(self):
        return View(0, (0, 1, 2, 3), (
            SubgroupSpec(0, (0, 1, 2), (0,), 16, 512, designated_sender=True),
            SubgroupSpec.of(1, [0, 1, 2, 3]),
        ))

    def test_needs_exactly_one_sender(self):
        with pytest.raises(ValueError, match="exactly one sender"):
            SubgroupSpec(0, (0, 1), (0, 1), 16, 512, designated_sender=True)

    def test_failed_sender_is_replaced_by_the_first_survivor(self):
        succ = self.shard_view().without([0])
        shard, plain = succ.subgroups
        assert shard.members == (1, 2)
        assert shard.senders == (1,)
        assert shard.designated_sender
        assert plain.senders == (1, 2, 3) and not plain.designated_sender

    def test_failed_follower_leaves_the_sender_alone(self):
        shard = self.shard_view().without([1]).subgroups[0]
        assert shard.members == (0, 2) and shard.senders == (0,)

    def test_joiner_enters_as_a_non_sender(self):
        succ = self.shard_view().without([0]).with_joined([0])
        shard, plain = succ.subgroups
        assert shard.members == (1, 2, 0)
        assert shard.senders == (1,) and shard.designated_sender
        # The all-senders subgroup beside it still grows its sender list.
        assert plain.senders == (1, 2, 3, 0)

    def test_one_survivor_view_still_remembers_the_shape(self):
        """senders == members here under either shape; only the spec's
        flag keeps the rejoiner from coming back as a second sender."""
        lone = self.shard_view().without([0, 1]).subgroups[0]
        assert lone.senders == lone.members == (2,)
        view = View(2, (2, 3), (lone,))
        rejoined = view.with_joined([0, 1]).subgroups[0]
        assert rejoined.members == (2, 0, 1)
        assert rejoined.senders == (2,)

    def test_the_sender_stays_the_first_member(self):
        view = self.shard_view()
        for step in (lambda v: v.without([0]), lambda v: v.with_joined([0]),
                     lambda v: v.without([1]), lambda v: v.with_joined([1])):
            view = step(view)
            shard = view.subgroups[0]
            assert shard.senders == shard.members[:1]

    def test_other_spec_fields_survive_both_transitions(self):
        spec = SubgroupSpec(0, (0, 1), (0,), 16, 512, persistent=True,
                            designated_sender=True)
        view = View(0, (0, 1, 2), (spec,)).without([1]).with_joined([1])
        got = view.subgroups[0]
        assert (got.window, got.message_size, got.persistent,
                got.delivery_mode) == (16, 512, True, "atomic")
