// Property-style parameterized tests over the knowledge base and engine
// invariants:
//   * every configured XSS sanitizer silences echo of $_GET;
//   * every configured SQL escaper silences a mysql_query sink;
//   * every superglobal-style source reaches echo;
//   * every revert function revives exactly the sanitization it undoes;
//   * metamorphic invariants: renaming variables, inserting dead code or
//     comments never changes the set of findings.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "baselines/analyzers.h"
#include "core/analyzer.h"
#include "php/project.h"
#include "util/json_reader.h"
#include "util/json_writer.h"

namespace phpsafe {
namespace {

AnalysisResult analyze(const std::string& code) {
    php::Project project("prop");
    project.add_file("main.php", code);
    DiagnosticSink sink;
    project.parse_all(sink);
    const Tool tool = make_phpsafe_tool();
    return Analyzer::borrowing(tool.kb, tool.options).scan(project).result;
}

// -- sanitizers ----------------------------------------------------------------

class XssSanitizerSweep : public ::testing::TestWithParam<const char*> {};

TEST_P(XssSanitizerSweep, SilencesEchoOfGet) {
    const std::string fn = GetParam();
    const auto r = analyze("<?php echo " + fn + "($_GET['x']);");
    EXPECT_EQ(r.count(VulnKind::kXss), 0) << fn;
}

INSTANTIATE_TEST_SUITE_P(
    AllXssSanitizers, XssSanitizerSweep,
    ::testing::Values("htmlentities", "htmlspecialchars", "strip_tags",
                      "urlencode", "rawurlencode", "intval", "floatval", "md5",
                      "sha1", "base64_encode", "bin2hex", "number_format",
                      "esc_html", "esc_attr", "esc_js", "esc_textarea", "esc_url",
                      "wp_kses_post", "sanitize_text_field", "sanitize_title",
                      "sanitize_email", "sanitize_key", "absint", "json_encode"));

class SqliSanitizerSweep : public ::testing::TestWithParam<const char*> {};

TEST_P(SqliSanitizerSweep, SilencesQuerySink) {
    const std::string fn = GetParam();
    const auto r = analyze("<?php $v = " + fn +
                           "($_POST['x']); mysql_query(\"SELECT '$v'\");");
    EXPECT_EQ(r.count(VulnKind::kSqli), 0) << fn;
}

INSTANTIATE_TEST_SUITE_P(
    AllSqlEscapers, SqliSanitizerSweep,
    ::testing::Values("mysql_escape_string", "mysql_real_escape_string",
                      "mysqli_real_escape_string", "addslashes", "intval",
                      "absint", "esc_sql", "like_escape", "pg_escape_string"));

// -- sources ---------------------------------------------------------------------

struct SourceCase {
    const char* expr;
    InputVector vector;
};

// Print parameters by their text: the default byte dump shows pointer values,
// which change from build to build and would rename the discovered tests.
void PrintTo(const SourceCase& c, std::ostream* os) { *os << c.expr; }

class SourceSweep : public ::testing::TestWithParam<SourceCase> {};

TEST_P(SourceSweep, ReachesEcho) {
    const SourceCase param = GetParam();
    const auto r = analyze("<?php $v = " + std::string(param.expr) + "; echo $v;");
    ASSERT_EQ(r.count(VulnKind::kXss), 1) << param.expr;
    EXPECT_EQ(r.findings[0].vector, param.vector) << param.expr;
}

INSTANTIATE_TEST_SUITE_P(
    AllSources, SourceSweep,
    ::testing::Values(
        SourceCase{"$_GET['k']", InputVector::kGet},
        SourceCase{"$_POST['k']", InputVector::kPost},
        SourceCase{"$_COOKIE['k']", InputVector::kCookie},
        SourceCase{"$_REQUEST['k']", InputVector::kRequest},
        SourceCase{"$_SERVER['HTTP_USER_AGENT']", InputVector::kServer},
        SourceCase{"$_FILES['f']['name']", InputVector::kFiles},
        SourceCase{"file_get_contents('u.txt')", InputVector::kFile},
        SourceCase{"fgets($fp, 64)", InputVector::kFile},
        SourceCase{"fread($fp, 64)", InputVector::kFile},
        SourceCase{"mysql_fetch_assoc($res)", InputVector::kDatabase},
        SourceCase{"mysql_fetch_array($res)", InputVector::kDatabase},
        SourceCase{"mysqli_fetch_assoc($res)", InputVector::kDatabase},
        SourceCase{"get_option('o')", InputVector::kDatabase},
        SourceCase{"get_post_meta(1, 'k', true)", InputVector::kDatabase},
        SourceCase{"get_transient('t')", InputVector::kDatabase},
        SourceCase{"getenv('PATH')", InputVector::kServer}),
    [](const ::testing::TestParamInfo<SourceCase>& info) {
        std::string name = info.param.expr;
        for (char& c : name)
            if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
        return name;
    });

// -- sinks ------------------------------------------------------------------------

class XssSinkSweep : public ::testing::TestWithParam<const char*> {};

TEST_P(XssSinkSweep, FiresOnTaintedArgument) {
    const std::string stmt = GetParam();
    const auto r = analyze("<?php $v = $_GET['x'];\n" + stmt + ";");
    EXPECT_EQ(r.count(VulnKind::kXss), 1) << stmt;
}

INSTANTIATE_TEST_SUITE_P(AllXssSinks, XssSinkSweep,
                         ::testing::Values("echo $v", "print $v",
                                           "printf('%s', $v)", "print_r($v)",
                                           "exit($v)", "die($v)", "_e($v)",
                                           "wp_die($v)", "trigger_error($v)",
                                           "vprintf('%s', $v)", "var_dump($v)"));

class SqliSinkSweep : public ::testing::TestWithParam<const char*> {};

TEST_P(SqliSinkSweep, FiresOnTaintedQuery) {
    const std::string stmt = GetParam();
    const auto r =
        analyze("<?php $v = $_GET['x']; $q = \"SELECT * FROM t WHERE a = '$v'\";\n" +
                stmt + ";");
    EXPECT_EQ(r.count(VulnKind::kSqli), 1) << stmt;
}

INSTANTIATE_TEST_SUITE_P(AllSqliSinks, SqliSinkSweep,
                         ::testing::Values("mysql_query($q)", "mysqli_query($c, $q)",
                                           "pg_query($q)", "$wpdb->query($q)",
                                           "$wpdb->get_results($q)",
                                           "$wpdb->get_var($q)",
                                           "$wpdb->get_row($q)",
                                           "$wpdb->get_col($q)"));

// -- reverts -----------------------------------------------------------------------

struct RevertCase {
    const char* sanitizer;
    const char* revert;
    VulnKind kind;
    const char* sink;  ///< statement template using $w
};

void PrintTo(const RevertCase& c, std::ostream* os) {
    *os << c.revert << "(" << c.sanitizer << "(...))";
}

class RevertSweep : public ::testing::TestWithParam<RevertCase> {};

TEST_P(RevertSweep, RevivesSanitizedTaint) {
    const RevertCase param = GetParam();
    const std::string code = std::string("<?php $v = ") + param.sanitizer +
                             "($_GET['x']); $w = " + param.revert + "($v);\n" +
                             param.sink + ";";
    const auto r = analyze(code);
    EXPECT_EQ(r.count(param.kind), 1) << code;
}

INSTANTIATE_TEST_SUITE_P(
    AllReverts, RevertSweep,
    ::testing::Values(
        RevertCase{"addslashes", "stripslashes", VulnKind::kSqli,
                   "mysql_query(\"SELECT '$w'\")"},
        RevertCase{"addslashes", "stripcslashes", VulnKind::kSqli,
                   "mysql_query(\"SELECT '$w'\")"},
        RevertCase{"htmlentities", "html_entity_decode", VulnKind::kXss, "echo $w"},
        RevertCase{"htmlspecialchars", "htmlspecialchars_decode", VulnKind::kXss,
                   "echo $w"},
        RevertCase{"urlencode", "urldecode", VulnKind::kXss, "echo $w"},
        RevertCase{"rawurlencode", "rawurldecode", VulnKind::kXss, "echo $w"},
        RevertCase{"base64_encode", "base64_decode", VulnKind::kXss, "echo $w"},
        RevertCase{"wp_slash", "wp_unslash", VulnKind::kSqli,
                   "mysql_query(\"SELECT '$w'\")"}));

// -- metamorphic invariants -----------------------------------------------------------

TEST(MetamorphicTest, VariableRenamingPreservesFindingCount) {
    const auto r1 = analyze("<?php $alpha = $_GET['x']; echo $alpha;");
    const auto r2 = analyze("<?php $omega = $_GET['x']; echo $omega;");
    EXPECT_EQ(r1.findings.size(), r2.findings.size());
}

TEST(MetamorphicTest, CommentsDoNotChangeFindings) {
    const auto r1 = analyze("<?php $a = $_GET['x']; echo $a;");
    const auto r2 = analyze(
        "<?php /* block */ $a = $_GET['x']; // trailing\n# hash\necho $a;");
    EXPECT_EQ(r1.findings.size(), r2.findings.size());
}

TEST(MetamorphicTest, DeadSafeCodeDoesNotChangeFindings) {
    const std::string base = "<?php $a = $_GET['x']; echo $a;";
    const std::string padded =
        "<?php $safe1 = 'constant'; $safe2 = strlen($safe1); "
        "function unused_helper($n) { return $n + 1; } "
        "$a = $_GET['x']; echo $a;";
    EXPECT_EQ(analyze(base).findings.size(), analyze(padded).findings.size());
}

TEST(MetamorphicTest, SplittingConcatenationPreservesDetection) {
    const auto joined = analyze("<?php echo 'a' . $_GET['x'] . 'b';");
    const auto split = analyze(
        "<?php $s = 'a'; $s .= $_GET['x']; $s .= 'b'; echo $s;");
    EXPECT_EQ(joined.findings.size(), split.findings.size());
}

TEST(MetamorphicTest, ExtractingToFunctionPreservesDetection) {
    const auto inline_r = analyze("<?php echo $_GET['x'];");
    const auto extracted = analyze(
        "<?php function emit($v) { echo $v; } emit($_GET['x']);");
    EXPECT_EQ(inline_r.findings.size(), extracted.findings.size());
}

TEST(MetamorphicTest, SanitizerPositionIrrelevant) {
    const auto at_source = analyze(
        "<?php $v = htmlspecialchars($_GET['x']); echo $v;");
    const auto at_sink = analyze(
        "<?php $v = $_GET['x']; echo htmlspecialchars($v);");
    EXPECT_EQ(at_source.findings.size(), at_sink.findings.size());
    EXPECT_TRUE(at_source.findings.empty());
}

TEST(MetamorphicTest, DoubleSanitizationStillClean) {
    const auto r = analyze(
        "<?php echo htmlspecialchars(htmlspecialchars($_GET['x']));");
    EXPECT_TRUE(r.findings.empty());
}

TEST(MetamorphicTest, TaintSurvivesArbitraryPropagationChain) {
    const auto r = analyze(
        "<?php $v = $_GET['x']; $v = trim($v); $v = strtolower($v); "
        "$v = str_replace('a', 'b', $v); $v = substr($v, 0, 10); echo $v;");
    EXPECT_EQ(r.findings.size(), 1u);
}

// Every explicitly-listed propagation built-in must keep taint alive.
class PropagatorSweep : public ::testing::TestWithParam<const char*> {};

TEST_P(PropagatorSweep, KeepsTaintAlive) {
    const std::string fn = GetParam();
    const auto r = analyze("<?php echo " + fn + "($_GET['x']);");
    EXPECT_EQ(r.count(VulnKind::kXss), 1) << fn;
}

INSTANTIATE_TEST_SUITE_P(
    Propagators, PropagatorSweep,
    ::testing::Values("trim", "strtolower", "strtoupper", "ucfirst", "ucwords",
                      "nl2br", "strrev", "strtr", "strstr", "mb_substr",
                      "mb_strtolower", "iconv", "utf8_encode", "quotemeta",
                      "maybe_unserialize", "stripslashes"));

// Every safe-return built-in must yield an untainted result.
class SafeReturnSweep : public ::testing::TestWithParam<const char*> {};

TEST_P(SafeReturnSweep, ReturnsClean) {
    const std::string fn = GetParam();
    const auto r = analyze("<?php echo " + fn + "($_GET['x']);");
    EXPECT_EQ(r.count(VulnKind::kXss), 0) << fn;
}

INSTANTIATE_TEST_SUITE_P(
    SafeReturns, SafeReturnSweep,
    ::testing::Values("strlen", "count", "is_numeric", "is_string", "file_exists",
                      "function_exists", "similar_text", "levenshtein", "min",
                      "floor", "round", "substr_count", "mb_strlen",
                      "is_readable", "strcmp", "strpos", "ord", "abs"));

// -- json_writer.h ⇄ json_reader.h round trip ---------------------------------
//
// Random documents (strings with escapes / control bytes / UTF-8, nested
// arrays and objects, int64 boundary values, fixed-point doubles) emitted
// by JsonWriter must parse back byte-for-byte equivalent through JsonReader.

/// SplitMix64 — tiny deterministic PRNG so failures reproduce exactly.
struct Rng {
    uint64_t state;
    uint64_t next() {
        state += 0x9E3779B97F4A7C15ull;
        uint64_t z = state;
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
        z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
        return z ^ (z >> 31);
    }
    uint64_t below(uint64_t bound) { return next() % bound; }
};

std::string random_json_string(Rng& rng) {
    static const std::vector<std::string> kAtoms = {
        "a", "Z", "0", " ", "\"", "\\", "/", "\n", "\r", "\t",
        std::string(1, '\0'), "\x01", "\x1f",
        "é", "ß", "漢字", "🙂",  // 2-, 2-, 3-, 4-byte UTF-8
        "<script>", "it's", "back\\slash", "line\nbreak"};
    std::string out;
    const size_t pieces = rng.below(12);
    for (size_t i = 0; i < pieces; ++i) out += kAtoms[rng.below(kAtoms.size())];
    return out;
}

int64_t random_int64(Rng& rng) {
    switch (rng.below(6)) {
        case 0: return 0;
        case 1: return -1;
        case 2: return std::numeric_limits<int64_t>::max();
        case 3: return std::numeric_limits<int64_t>::min() + 1;
        case 4: return (int64_t{1} << 53) + static_cast<int64_t>(rng.below(1000));
        default: return static_cast<int64_t>(rng.next());
    }
}

JsonValue random_document(Rng& rng, int depth) {
    JsonValue v;
    const uint64_t pick = rng.below(depth < 4 ? 7 : 5);
    switch (pick) {
        case 0: v.kind = JsonValue::Kind::kNull; break;
        case 1:
            v.kind = JsonValue::Kind::kBool;
            v.boolean = rng.below(2) == 1;
            break;
        case 2:
            v.kind = JsonValue::Kind::kNumber;
            v.number_is_integer = true;
            v.integer = random_int64(rng);
            v.number = static_cast<double>(v.integer);
            break;
        case 3:
            v.kind = JsonValue::Kind::kNumber;
            // Fixed 4-decimal doubles (what value(double) emits).
            v.number = static_cast<double>(static_cast<int64_t>(rng.below(2000000)) -
                                           1000000) /
                       10000.0;
            break;
        case 4:
            v.kind = JsonValue::Kind::kString;
            v.string = random_json_string(rng);
            break;
        case 5: {
            v.kind = JsonValue::Kind::kArray;
            const size_t n = rng.below(5);
            for (size_t i = 0; i < n; ++i)
                v.array.push_back(random_document(rng, depth + 1));
            break;
        }
        default: {
            v.kind = JsonValue::Kind::kObject;
            const size_t n = rng.below(5);
            for (size_t i = 0; i < n; ++i) {
                std::string key = "k";
                key += std::to_string(i);
                key += random_json_string(rng);
                v.object.emplace_back(std::move(key),
                                      random_document(rng, depth + 1));
            }
            break;
        }
    }
    return v;
}

void emit(JsonWriter& w, const JsonValue& v) {
    switch (v.kind) {
        case JsonValue::Kind::kNull: w.null(); break;
        case JsonValue::Kind::kBool: w.value(v.boolean); break;
        case JsonValue::Kind::kNumber:
            if (v.number_is_integer)
                w.value(v.integer);
            else
                w.value(v.number);
            break;
        case JsonValue::Kind::kString: w.value(v.string); break;
        case JsonValue::Kind::kArray:
            w.begin_array();
            for (const auto& e : v.array) emit(w, e);
            w.end_array();
            break;
        case JsonValue::Kind::kObject:
            w.begin_object();
            for (const auto& [k, e] : v.object) {
                w.key(k);
                emit(w, e);
            }
            w.end_object();
            break;
    }
}

::testing::AssertionResult equivalent(const JsonValue& want,
                                      const JsonValue& got) {
    if (want.kind != got.kind)
        return ::testing::AssertionFailure() << "kind mismatch";
    switch (want.kind) {
        case JsonValue::Kind::kNull: break;
        case JsonValue::Kind::kBool:
            if (want.boolean != got.boolean)
                return ::testing::AssertionFailure() << "bool mismatch";
            break;
        case JsonValue::Kind::kNumber:
            if (want.number_is_integer) {
                if (!got.number_is_integer || got.integer != want.integer)
                    return ::testing::AssertionFailure()
                           << "int " << want.integer << " read back as "
                           << (got.number_is_integer
                                   ? std::to_string(got.integer)
                                   : std::to_string(got.number));
            } else if (got.number != want.number) {
                // value(double) writes exactly 4 decimals, which every
                // generated double represents exactly; reparse must match.
                return ::testing::AssertionFailure()
                       << "double " << want.number << " != " << got.number;
            }
            break;
        case JsonValue::Kind::kString:
            if (want.string != got.string)
                return ::testing::AssertionFailure()
                       << "string mismatch: want " << want.string << " got "
                       << got.string;
            break;
        case JsonValue::Kind::kArray:
            if (want.array.size() != got.array.size())
                return ::testing::AssertionFailure() << "array size";
            for (size_t i = 0; i < want.array.size(); ++i)
                if (auto r = equivalent(want.array[i], got.array[i]); !r)
                    return r;
            break;
        case JsonValue::Kind::kObject:
            if (want.object.size() != got.object.size())
                return ::testing::AssertionFailure() << "object size";
            for (size_t i = 0; i < want.object.size(); ++i) {
                if (want.object[i].first != got.object[i].first)
                    return ::testing::AssertionFailure() << "key mismatch";
                if (auto r = equivalent(want.object[i].second,
                                        got.object[i].second);
                    !r)
                    return r;
            }
            break;
    }
    return ::testing::AssertionSuccess();
}

TEST(JsonRoundTripProperty, RandomDocumentsSurviveWriteThenRead) {
    Rng rng{0x5eed4a11};
    for (int iter = 0; iter < 500; ++iter) {
        const JsonValue doc = random_document(rng, 0);
        for (const int indent : {0, 2}) {
            std::ostringstream os;
            JsonWriter w(os, indent);
            emit(w, doc);
            JsonValue parsed;
            std::string error;
            ASSERT_TRUE(JsonReader::parse(os.str(), parsed, &error))
                << "iter " << iter << ": " << error << "\n" << os.str();
            EXPECT_TRUE(equivalent(doc, parsed)) << "iter " << iter << "\n"
                                                 << os.str();
        }
    }
}

TEST(JsonRoundTripProperty, Int64BoundariesExact) {
    for (const int64_t v : {std::numeric_limits<int64_t>::max(),
                            std::numeric_limits<int64_t>::min() + 1,
                            (int64_t{1} << 53) + 1, int64_t{0}}) {
        std::ostringstream os;
        JsonWriter w(os, 0);
        w.begin_object().kv("n", v).end_object();
        JsonValue parsed;
        ASSERT_TRUE(JsonReader::parse(os.str(), parsed, nullptr)) << os.str();
        EXPECT_EQ(parsed.int_or("n", -42), v);
    }
}

TEST(JsonRoundTripProperty, NonIntegerTokensStillReadAsDouble) {
    JsonValue parsed;
    ASSERT_TRUE(JsonReader::parse("{\"x\":2.5,\"y\":1e3}", parsed, nullptr));
    EXPECT_EQ(parsed.get("x")->number, 2.5);
    EXPECT_FALSE(parsed.get("x")->number_is_integer);
    EXPECT_EQ(parsed.int_or("y", 0), 1000);  // truncated double path
}

}  // namespace
}  // namespace phpsafe
