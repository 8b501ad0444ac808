"""Tests for URL utilities and the HTML parser."""

import pytest

from repro.errors import ValidationError
from repro.web.html import parse_html
from repro.web.urls import domain_of, is_same_site, normalize_url, registered_domain


class TestUrls:
    def test_normalize_lowercases_and_strips_fragment(self):
        assert (
            normalize_url("HTTPS://News.Example.COM/Story/#section")
            == "https://news.example.com/Story"
        )

    def test_normalize_strips_default_ports_and_tracking_params(self):
        assert normalize_url("http://example.com:80/a?utm_source=x&id=2") == "http://example.com/a?id=2"
        assert normalize_url("https://example.com:443/a") == "https://example.com/a"

    def test_normalize_requires_absolute_url(self):
        with pytest.raises(ValidationError):
            normalize_url("/relative/path")

    def test_domain_of(self):
        assert domain_of("https://user@news.example.com:8443/x") == "news.example.com"
        with pytest.raises(ValidationError):
            domain_of("https:///nopath")

    def test_registered_domain(self):
        assert registered_domain("news.example.com") == "example.com"
        assert registered_domain("https://www.bbc.co.uk/news") == "bbc.co.uk"
        assert registered_domain("ox.ac.uk") == "ox.ac.uk"
        assert registered_domain("example.com") == "example.com"

    def test_is_same_site(self):
        assert is_same_site("https://a.example.com/x", "https://b.example.com/y")
        assert not is_same_site("https://example.com", "https://other.org")


class TestHtmlParser:
    HTML = (
        "<html><head><title>Example   Title</title>"
        '<meta name="author" content="Jane Roe">'
        '<meta property="article:published_time" content="2020-02-01T08:00:00">'
        "<style>p {color: red}</style></head>"
        "<body><h1>Example Title</h1>"
        '<p class="byline">By John Smith</p>'
        "<p>First paragraph with a <a href=\"https://nature.com/x\">study link</a>.</p>"
        "<p>Second paragraph.</p>"
        "<script>var x = 'ignore me';</script>"
        '<ul><li><a href="/relative/see-also">see also</a></li></ul>'
        "</body></html>"
    )

    def test_title_is_extracted_and_whitespace_collapsed(self):
        assert parse_html(self.HTML).title == "Example Title"

    def test_author_comes_from_meta_tag_first(self):
        assert parse_html(self.HTML).author == "Jane Roe"

    def test_byline_fallback_when_no_meta(self):
        html = self.HTML.replace('<meta name="author" content="Jane Roe">', "")
        assert parse_html(html).author == "John Smith"

    def test_paragraphs_exclude_script_and_style(self):
        document = parse_html(self.HTML)
        assert not any("ignore me" in p for p in document.paragraphs)
        assert not any("color" in p for p in document.paragraphs)
        assert any("First paragraph" in p for p in document.paragraphs)

    def test_links_keep_anchor_text(self):
        document = parse_html(self.HTML)
        hrefs = document.link_hrefs()
        assert "https://nature.com/x" in hrefs
        assert "/relative/see-also" in hrefs
        study_link = next(l for l in document.links if l.href == "https://nature.com/x")
        assert study_link.anchor_text == "study link"

    def test_meta_dictionary(self):
        document = parse_html(self.HTML)
        assert document.meta["article:published_time"] == "2020-02-01T08:00:00"

    def test_text_property_joins_paragraphs(self):
        document = parse_html(self.HTML)
        assert "First paragraph" in document.text
        assert "Second paragraph" in document.text

    def test_malformed_html_does_not_raise(self):
        document = parse_html("<p>Unclosed <a href='x'>link <div>nested")
        assert document is not None

    def test_empty_input(self):
        document = parse_html("")
        assert document.title == ""
        assert document.paragraphs == []
