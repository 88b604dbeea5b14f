// Minimal streaming JSON writer shared by every JSON producer in the tree
// (report/export.cpp, the bench baselines, the obs trace exporters).
// Before it existed each of those hand-rolled its own comma/escape/indent
// logic; this centralizes the three things that keep going wrong in
// hand-rolled emission — separators, string escaping, and balanced
// nesting — behind a push API:
//
//   JsonWriter w(os, /*indent_width=*/2);
//   w.begin_object();
//   w.kv("tool", "phpSAFE");
//   w.key("findings").begin_array();
//   ... w.value(...) ...
//   w.end_array();
//   w.end_object();
//
// indent_width 0 produces compact single-line JSON (the CI export format);
// a positive width pretty-prints with that many spaces per level (the
// committed BENCH_*.json files).
#pragma once

#include <cstdint>
#include <cstdio>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace phpsafe {

/// Escapes text for a JSON string literal (without surrounding quotes).
inline std::string json_escape(std::string_view text) {
    std::string out;
    out.reserve(text.size());
    for (char c : text) {
        switch (c) {
            case '"': out += "\\\""; break;
            case '\\': out += "\\\\"; break;
            case '\n': out += "\\n"; break;
            case '\r': out += "\\r"; break;
            case '\t': out += "\\t"; break;
            default:
                if (static_cast<unsigned char>(c) < 0x20) {
                    char buf[8];
                    std::snprintf(buf, sizeof buf, "\\u%04x", c);
                    out += buf;
                } else {
                    out += c;
                }
        }
    }
    return out;
}

class JsonWriter {
public:
    explicit JsonWriter(std::ostream& out, int indent_width = 0)
        : out_(out), indent_width_(indent_width) {}

    JsonWriter& begin_object() { return open('{', /*is_array=*/false); }
    JsonWriter& end_object() { return close('}'); }
    JsonWriter& begin_array() { return open('[', /*is_array=*/true); }
    JsonWriter& end_array() { return close(']'); }

    JsonWriter& key(std::string_view name) {
        separate();
        out_ << '"' << json_escape(name) << (indent_width_ > 0 ? "\": " : "\":");
        have_key_ = true;
        return *this;
    }

    JsonWriter& value(std::string_view text) {
        separate();
        out_ << '"' << json_escape(text) << '"';
        return *this;
    }
    JsonWriter& value(const char* text) { return value(std::string_view(text)); }
    JsonWriter& value(bool v) {
        separate();
        out_ << (v ? "true" : "false");
        return *this;
    }
    JsonWriter& value(int v) { return integral(static_cast<int64_t>(v)); }
    JsonWriter& value(int64_t v) { return integral(v); }
    JsonWriter& value(uint64_t v) {
        separate();
        out_ << v;
        return *this;
    }
    /// Fixed-point double (JSON has no NaN/Inf; those emit 0).
    JsonWriter& value(double v, int decimals = 4) {
        separate();
        char buf[64];
        std::snprintf(buf, sizeof buf, "%.*f", decimals,
                      v == v && v - v == 0.0 ? v : 0.0);
        out_ << buf;
        return *this;
    }
    JsonWriter& null() {
        separate();
        out_ << "null";
        return *this;
    }

    template <typename V>
    JsonWriter& kv(std::string_view name, V&& v) {
        key(name);
        return value(std::forward<V>(v));
    }
    JsonWriter& kv(std::string_view name, double v, int decimals) {
        key(name);
        return value(v, decimals);
    }

    /// True when every begin_* has been matched by its end_*.
    bool balanced() const noexcept { return stack_.empty(); }

private:
    struct Level {
        bool is_array = false;
        size_t items = 0;
    };

    JsonWriter& integral(int64_t v) {
        separate();
        out_ << v;
        return *this;
    }

    JsonWriter& open(char c, bool is_array) {
        separate();
        out_ << c;
        stack_.push_back(Level{is_array, 0});
        return *this;
    }

    JsonWriter& close(char c) {
        const bool had_items = !stack_.empty() && stack_.back().items > 0;
        if (!stack_.empty()) stack_.pop_back();
        if (indent_width_ > 0 && had_items) {
            out_ << '\n';
            indent();
        }
        out_ << c;
        return *this;
    }

    /// Emits the separator (comma, newline, indentation) a new item needs
    /// at the current position. A value directly after key() is the key's
    /// payload and needs nothing.
    void separate() {
        if (have_key_) {
            have_key_ = false;
            return;
        }
        if (stack_.empty()) return;
        if (stack_.back().items > 0) out_ << ',';
        ++stack_.back().items;
        if (indent_width_ > 0) {
            out_ << '\n';
            indent();
        }
    }

    void indent() {
        for (size_t i = 0; i < stack_.size() * indent_width_; ++i) out_ << ' ';
    }

    std::ostream& out_;
    int indent_width_;
    std::vector<Level> stack_;
    bool have_key_ = false;
};

}  // namespace phpsafe
