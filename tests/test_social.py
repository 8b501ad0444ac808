"""Tests for the social substrate: accounts, reach, stance aggregation."""

from datetime import datetime

import pytest

from repro.errors import ValidationError
from repro.models import Reaction, ReactionKind, SocialPost
from repro.social.accounts import AccountRegistry, SocialAccount
from repro.social.reach import compute_reach, reactions_per_article
from repro.social.stance_aggregate import aggregate_stance

NOW = datetime(2020, 2, 1, 12, 0, 0)
URL = "https://dailyscience.example.com/story"


def _post(post_id, text="", account="@user", reply_to=None, followers=100):
    return SocialPost(
        post_id=post_id,
        platform="twitter",
        account=account,
        article_url=URL,
        text=text,
        created_at=NOW,
        followers=followers,
        reply_to=reply_to,
    )


def _reaction(reaction_id, post_id, kind=ReactionKind.LIKE, text=""):
    return Reaction(
        reaction_id=reaction_id, post_id=post_id, kind=kind, created_at=NOW, text=text
    )


class TestAccountRegistry:
    def test_add_lookup_and_case_insensitivity(self):
        registry = AccountRegistry([
            SocialAccount(handle="@DailyScience", platform="twitter",
                          outlet_domain="dailyscience.example.com", followers=1000),
        ])
        assert "@dailyscience" in registry
        assert registry.outlet_for("@DAILYSCIENCE") == "dailyscience.example.com"
        assert registry.followers_of("@dailyscience") == 1000
        assert registry.followers_of("@unknown") == 0

    def test_accounts_of_outlet(self):
        registry = AccountRegistry()
        registry.add(SocialAccount(handle="@a", platform="twitter", outlet_domain="x.example.com"))
        registry.add(SocialAccount(handle="@b", platform="twitter"))
        assert len(registry.accounts_of_outlet("x.example.com")) == 1
        assert not registry.get("@b").is_outlet_account

    def test_invalid_account(self):
        with pytest.raises(ValidationError):
            SocialAccount(handle="", platform="twitter")


class TestReach:
    def test_reach_counts_posts_and_reactions(self):
        posts = [_post("p1", followers=1000), _post("p2", followers=50)]
        reactions = [
            _reaction("r1", "p1", ReactionKind.LIKE),
            _reaction("r2", "p1", ReactionKind.SHARE),
            _reaction("r3", "p2", ReactionKind.REPLY),
            _reaction("r4", "unrelated-post", ReactionKind.LIKE),
        ]
        report = compute_reach(URL, posts, reactions)
        assert report.n_posts == 2
        assert report.n_reactions == 3
        assert report.reaction_counts["share"] == 1
        assert report.follower_exposure == 1050
        # 2 posts + like(1) + share(2) + reply(1.5)
        assert report.weighted_reach == pytest.approx(6.5)
        assert 0.0 < report.popularity < 1.0

    def test_reach_accepts_mapping_of_reactions(self):
        posts = [_post("p1")]
        reactions = {"p1": [_reaction("r1", "p1")], "other": [_reaction("r2", "other")]}
        report = compute_reach(URL, posts, reactions)
        assert report.n_reactions == 1

    def test_zero_activity(self):
        report = compute_reach(URL, [], [])
        assert report.popularity == 0.0
        assert report.weighted_reach == 0.0

    def test_reactions_per_article(self):
        posts = [_post("p1"), _post("p2")]
        reactions = [_reaction("r1", "p1"), _reaction("r2", "p2"), _reaction("r3", "p2")]
        assert reactions_per_article(posts, reactions) == {URL: 3}


class TestStanceAggregation:
    def test_distribution_over_posts_and_text_reactions(self):
        posts = [
            _post("p1", "Great article, accurate and informative."),
            _post("p2", "This is fake news, debunked nonsense."),
            _post("p3", "Morning news roundup."),
        ]
        reactions = [_reaction("r1", "p1", ReactionKind.REPLY, text="Exactly right, thanks for sharing.")]
        distribution = aggregate_stance(URL, posts, reactions)
        assert distribution.n_classified == 4
        assert distribution.positive_fraction > distribution.negative_fraction
        assert -1.0 <= distribution.net_stance <= 1.0
        payload = distribution.as_dict()
        assert payload["stance_positive"] + payload["stance_negative"] == pytest.approx(1.0)

    def test_empty_discussion(self):
        distribution = aggregate_stance(URL, [], [])
        assert distribution.n_classified == 0
        assert distribution.positive_fraction == 0.0

