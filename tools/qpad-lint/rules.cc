#include "rules.hh"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <set>

namespace qlint
{

namespace
{

bool
isP(const Token &t, std::string_view s)
{
    return t.kind == Tok::kPunct && t.text == s;
}

bool
isI(const Token &t, std::string_view s)
{
    return t.kind == Tok::kIdent && t.text == s;
}

std::string
basename(const std::string &path)
{
    const std::size_t slash = path.find_last_of('/');
    return slash == std::string::npos ? path : path.substr(slash + 1);
}

/** Keywords that look like `name(` but never open a function body. */
const std::set<std::string> &
notFunctionNames()
{
    static const std::set<std::string> kw = {
        "if",      "for",     "while",    "switch",        "catch",
        "return",  "sizeof",  "alignof",  "alignas",       "decltype",
        "new",     "delete",  "throw",    "static_assert", "noexcept",
        "assert",  "requires", "typeid",  "co_return",     "co_await",
        "defined", "__attribute__"};
    return kw;
}

} // namespace

std::vector<std::string>
enclosingFunctions(const std::vector<Token> &t)
{
    std::vector<std::string> out(t.size());
    // Brace stack: true = the matching } closes a named function.
    std::vector<bool> stack;
    std::string current;

    // Candidate-signature machine, active only at non-function scope.
    enum State { kNone, kParams, kAfterParams, kInitList };
    State st = kNone;
    std::string cand;
    int depth = 0;      // paren nesting inside the current state
    int init_brace = 0; // brace-init nesting inside a member init

    // Preprocessor directives are skipped: `#define M(x) ...` would
    // otherwise read like a signature, and a `{` in a macro body
    // would corrupt the brace stack.
    bool in_pp = false;
    int pp_line = 0;

    for (std::size_t i = 0; i < t.size(); ++i) {
        out[i] = current;
        const Token &tk = t[i];

        if (in_pp) {
            if (tk.line <= pp_line) {
                if (isP(tk, "\\"))
                    pp_line = tk.line + 1; // line continuation
                continue;
            }
            in_pp = false;
        }
        if (isP(tk, "#")) {
            in_pp = true;
            pp_line = tk.line;
            continue;
        }

        if (!current.empty()) {
            // Inside a function only the brace depth matters.
            if (isP(tk, "{")) {
                stack.push_back(false);
            } else if (isP(tk, "}")) {
                if (!stack.empty()) {
                    const bool was_fn = stack.back();
                    stack.pop_back();
                    if (was_fn)
                        current.clear();
                }
            }
            continue;
        }

        switch (st) {
        case kNone:
            if (isP(tk, "{")) {
                stack.push_back(false); // namespace/class/init list
            } else if (isP(tk, "}")) {
                if (!stack.empty())
                    stack.pop_back();
            } else if (tk.kind == Tok::kIdent && i + 1 < t.size() &&
                       isP(t[i + 1], "(") &&
                       !notFunctionNames().count(tk.text)) {
                cand = tk.text;
                st = kParams;
                depth = 0;
            }
            break;

        case kParams:
            if (isP(tk, "("))
                ++depth;
            else if (isP(tk, ")") && --depth == 0)
                st = kAfterParams;
            break;

        case kAfterParams:
            // `name(` again means the earlier match was part of the
            // return type (e.g. std::function<void(int)> f() {...}).
            if (tk.kind == Tok::kIdent && i + 1 < t.size() &&
                isP(t[i + 1], "(") && depth == 0 &&
                !notFunctionNames().count(tk.text)) {
                cand = tk.text;
                st = kParams;
                break;
            }
            if (isP(tk, "(")) {
                ++depth; // noexcept(...), attributes
                break;
            }
            if (isP(tk, ")")) {
                if (depth > 0)
                    --depth;
                break;
            }
            if (depth > 0)
                break;
            if (isP(tk, "{")) {
                stack.push_back(true);
                current = cand;
                st = kNone;
                break;
            }
            if (isP(tk, ":")) {
                st = kInitList; // constructor member-init list
                break;
            }
            if (isP(tk, ";") || isP(tk, "=") || isP(tk, ",") ||
                isP(tk, "}")) {
                if (isP(tk, "}") && !stack.empty())
                    stack.pop_back();
                st = kNone;
                cand.clear();
            }
            // const / noexcept / override / -> trailing types: keep.
            break;

        case kInitList:
            if (isP(tk, "(")) {
                ++depth;
                break;
            }
            if (isP(tk, ")")) {
                if (depth > 0)
                    --depth;
                break;
            }
            if (depth > 0)
                break;
            if (init_brace > 0) {
                if (isP(tk, "{"))
                    ++init_brace;
                else if (isP(tk, "}"))
                    --init_brace;
                break;
            }
            if (isP(tk, "{")) {
                // `member_{0}` brace-init vs the body: a brace right
                // after an identifier (or template `>`) initializes.
                const bool braces_member =
                    i > 0 && (t[i - 1].kind == Tok::kIdent ||
                              isP(t[i - 1], ">"));
                if (braces_member) {
                    init_brace = 1;
                } else {
                    stack.push_back(true);
                    current = cand;
                    st = kNone;
                }
                break;
            }
            if (isP(tk, ";")) {
                st = kNone;
                cand.clear();
            }
            break;
        }
    }
    return out;
}

bool
validMetricName(std::string_view name)
{
    std::size_t start = 0;
    int segments = 0;
    while (start <= name.size()) {
        std::size_t dot = name.find('.', start);
        const std::string_view seg = name.substr(
            start,
            (dot == std::string_view::npos ? name.size() : dot) - start);
        if (seg.empty() || !(seg[0] >= 'a' && seg[0] <= 'z'))
            return false;
        for (char c : seg)
            if (!((c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') ||
                  c == '_'))
                return false;
        ++segments;
        if (dot == std::string_view::npos)
            break;
        start = dot + 1;
    }
    return segments >= 2;
}

namespace
{

struct ParsedSuppression
{
    std::string rule;
    std::string justification;
    int line = 0;       // where the allow() comment sits
    int cover_from = 0; // first line it applies to
    int cover_to = 0;   // last line it applies to
    bool justified = false;
    bool used = false;
};

/** Parse `qpad-lint: allow(<rule>) "justification"` out of comments. */
std::vector<ParsedSuppression>
parseSuppressions(const std::vector<Comment> &comments,
                  const std::vector<Token> &toks)
{
    // A comment standing alone on its line covers the whole next
    // *statement* — up to the first ; { or } token — so a wrapped
    // multi-line call needs no comment surgery mid-statement.
    auto statementEnd = [&](int after_line) {
        std::size_t i = 0;
        while (i < toks.size() && toks[i].line <= after_line)
            ++i;
        if (i >= toks.size())
            return after_line + 1;
        for (; i < toks.size(); ++i) {
            const Token &t = toks[i];
            if (t.kind == Tok::kPunct &&
                (t.text == ";" || t.text == "{" || t.text == "}"))
                return t.line;
        }
        return toks.back().line;
    };

    std::vector<ParsedSuppression> out;
    for (std::size_t ci = 0; ci < comments.size(); ++ci) {
        const Comment &c = comments[ci];
        const std::size_t tag = c.text.find("qpad-lint:");
        if (tag == std::string::npos)
            continue;
        // A justification may wrap onto following comment lines;
        // absorb directly-adjacent continuation comments that do not
        // start their own suppression.
        std::string s = c.text;
        int end_line = c.end_line;
        while (ci + 1 < comments.size() &&
               comments[ci + 1].line == end_line + 1 &&
               !comments[ci + 1].code_before &&
               comments[ci + 1].text.find("qpad-lint:") ==
                   std::string::npos) {
            ++ci;
            s += " " + comments[ci].text;
            end_line = comments[ci].end_line;
        }
        ParsedSuppression p;
        p.line = c.line;
        p.cover_from = c.line;
        p.cover_to = c.code_before ? end_line
                                   : statementEnd(end_line);
        const std::size_t open = s.find("allow(", tag);
        const std::size_t close =
            open == std::string::npos ? std::string::npos
                                      : s.find(')', open);
        if (close == std::string::npos) {
            out.push_back(std::move(p)); // malformed: unjustified
            continue;
        }
        std::size_t rb = open + 6, re = close;
        while (rb < re && std::isspace(
                              static_cast<unsigned char>(s[rb])))
            ++rb;
        while (re > rb && std::isspace(
                              static_cast<unsigned char>(s[re - 1])))
            --re;
        p.rule = s.substr(rb, re - rb);
        const std::size_t q1 = s.find('"', close);
        const std::size_t q2 =
            q1 == std::string::npos ? std::string::npos
                                    : s.find('"', q1 + 1);
        if (q2 != std::string::npos && q2 > q1 + 1) {
            // Collapse whitespace runs: wrapped justifications join
            // across comment lines with comment-leader padding.
            std::string just;
            bool in_space = false;
            for (std::size_t i = q1 + 1; i < q2; ++i) {
                const char ch = s[i];
                if (std::isspace(static_cast<unsigned char>(ch))) {
                    in_space = true;
                    continue;
                }
                if (in_space && !just.empty())
                    just += ' ';
                in_space = false;
                just += ch;
            }
            p.justification = std::move(just);
            p.justified = true;
        }
        out.push_back(std::move(p));
    }
    return out;
}

class RuleRunner
{
  public:
    RuleRunner(const std::string &relpath, const LexResult &lx,
               const Config &cfg)
        : path_(relpath), toks_(lx.tokens), cfg_(cfg)
    {
    }

    std::vector<Finding> run();

  private:
    const std::string &path_;
    const std::vector<Token> &toks_;
    const Config &cfg_;
    std::vector<Finding> findings_;

    bool on(const char *rule) const
    {
        return cfg_.appliesTo(rule, path_);
    }

    void add(const char *rule, int line, std::string msg)
    {
        findings_.push_back(
            Finding{path_, line, rule, std::move(msg), false, ""});
    }

    const Token *at(std::size_t i) const
    {
        return i < toks_.size() ? &toks_[i] : nullptr;
    }
    const Token *prev(std::size_t i) const
    {
        return i == 0 ? nullptr : &toks_[i - 1];
    }

    void ruleNoRand();
    void ruleNoWallclock();
    void ruleNoUninit();
    void ruleRngDrawSite();
    void ruleUnorderedIter();
    void ruleAtomicOrder();
    void ruleMetricName();
    void ruleRawLog();
    void ruleRawIo();
};

void
RuleRunner::ruleNoRand()
{
    static const std::set<std::string> calls = {"rand", "srand",
                                               "drand48", "rand_r"};
    for (std::size_t i = 0; i < toks_.size(); ++i) {
        const Token &tk = toks_[i];
        if (tk.kind != Tok::kIdent)
            continue;
        if (tk.text == "random_device") {
            add("no-rand", tk.line,
                "std::random_device is ambient entropy; every qpad "
                "stream must come from an explicitly seeded Rng");
            continue;
        }
        if (!calls.count(tk.text))
            continue;
        const Token *nx = at(i + 1);
        const Token *pv = prev(i);
        const bool member = pv && (isP(*pv, ".") || isP(*pv, "->"));
        if (!member && ((nx && isP(*nx, "(")) ||
                        (pv && isP(*pv, "::"))))
            add("no-rand", tk.line,
                "'" + tk.text +
                    "' is ambient entropy; seed an explicit Rng");
    }
}

void
RuleRunner::ruleNoWallclock()
{
    static const std::set<std::string> calls = {
        "time",   "clock",    "gettimeofday", "clock_gettime",
        "localtime", "gmtime", "mktime",      "ctime",
        "asctime", "ftime"};
    // Sanctioned clock-reading helpers ([wallclock] in the config,
    // "file-basename:function" like the RNG allowlist): exec::now()
    // is the one deliberate steady-clock read that deadlines are
    // defined against. Reads elsewhere still fire — callers must go
    // through the helper, which is the whole point of the rule.
    const std::vector<std::string> funcs = enclosingFunctions(toks_);
    const std::string base = basename(path_);
    auto sanctioned = [&](std::size_t i) {
        const std::string key = base + ":" + funcs[i];
        return std::find(cfg_.wallclock_sanctioned.begin(),
                         cfg_.wallclock_sanctioned.end(),
                         key) != cfg_.wallclock_sanctioned.end();
    };
    for (std::size_t i = 0; i < toks_.size(); ++i) {
        const Token &tk = toks_[i];
        if (tk.kind != Tok::kIdent)
            continue;
        const Token *nx = at(i + 1);
        const Token *pv = prev(i);
        // steady_clock::now(), system_clock::now(), or an alias
        // literally named `clock`.
        const bool clock_type =
            tk.text == "clock" ||
            (tk.text.size() > 6 &&
             tk.text.compare(tk.text.size() - 6, 6, "_clock") == 0);
        if (clock_type && nx && isP(*nx, "::") &&
            at(i + 2) && isI(*at(i + 2), "now")) {
            if (sanctioned(i))
                continue;
            add("no-wallclock", tk.line,
                "'" + tk.text +
                    "::now()' outside src/obs/ and bench/: wall-clock "
                    "time must never feed computation");
            continue;
        }
        const bool member = pv && (isP(*pv, ".") || isP(*pv, "->"));
        if (calls.count(tk.text) && nx && isP(*nx, "(") && !member &&
            !sanctioned(i))
            add("no-wallclock", tk.line,
                "'" + tk.text +
                    "()' outside src/obs/ and bench/: wall-clock time "
                    "must never feed computation");
    }
}

void
RuleRunner::ruleNoUninit()
{
    static const std::set<std::string> allocs = {"malloc", "realloc",
                                                 "alloca", "calloc"};
    static const std::set<std::string> arith = {
        "char",    "short",   "int",      "long",    "float",
        "double",  "int8_t",  "int16_t",  "int32_t", "int64_t",
        "uint8_t", "uint16_t", "uint32_t", "uint64_t", "size_t",
        "ptrdiff_t", "unsigned", "signed"};
    for (std::size_t i = 0; i < toks_.size(); ++i) {
        const Token &tk = toks_[i];
        if (tk.kind != Tok::kIdent)
            continue;
        const Token *nx = at(i + 1);
        const Token *pv = prev(i);
        const bool member = pv && (isP(*pv, ".") || isP(*pv, "->"));
        if (allocs.count(tk.text) && nx && isP(*nx, "(") && !member) {
            add("no-uninit", tk.line,
                "'" + tk.text +
                    "()' in a compute path: raw allocations read "
                    "uninitialized bytes too easily; use an owning "
                    "container");
            continue;
        }
        if (tk.text != "new")
            continue;
        // `new double[n]` — value-initialization is absent, so the
        // array is read-before-write bait. Scan a short type
        // spelling: idents and `::` only, then `[`.
        bool saw_arith = false;
        std::size_t j = i + 1;
        for (; j < toks_.size() && j < i + 7; ++j) {
            const Token &ty = toks_[j];
            if (ty.kind == Tok::kIdent) {
                if (arith.count(ty.text))
                    saw_arith = true;
                else if (ty.text != "std" && ty.text != "const")
                    break;
                continue;
            }
            if (isP(ty, "::"))
                continue;
            break;
        }
        if (saw_arith && at(j) && isP(*at(j), "["))
            add("no-uninit", tk.line,
                "raw 'new T[n]' of arithmetic type is never "
                "value-initialized; use std::vector");
    }
}

void
RuleRunner::ruleRngDrawSite()
{
    static const std::set<std::string> draws = {
        "next",  "uniform", "gaussian", "below",
        "range", "chance",  "split"};
    const std::vector<std::string> funcs = enclosingFunctions(toks_);
    const std::string base = basename(path_);
    for (std::size_t i = 0; i < toks_.size(); ++i) {
        const Token &tk = toks_[i];
        if (tk.kind != Tok::kIdent || !draws.count(tk.text))
            continue;
        const Token *pv = prev(i);
        const Token *nx = at(i + 1);
        if (!pv || !(isP(*pv, ".") || isP(*pv, "->")) || !nx ||
            !isP(*nx, "("))
            continue;
        const std::string &fn = funcs[i];
        const std::string key = base + ":" + fn;
        if (std::find(cfg_.sanctioned.begin(), cfg_.sanctioned.end(),
                      key) != cfg_.sanctioned.end())
            continue;
        add("rng-draw-site", tk.line,
            "Rng draw '." + tk.text + "()' in " +
                (fn.empty() ? std::string("file scope")
                            : "'" + fn + "'") +
                ", which is not a sanctioned helper: a new draw site "
                "changes draw consumption — bump kDrawOrderVersion "
                "and add the helper to [rng] sanctioned, or suppress "
                "with a justification");
    }
}

void
RuleRunner::ruleUnorderedIter()
{
    // Pass 1: names declared with an unordered container type.
    std::set<std::string> tracked;
    for (std::size_t i = 0; i < toks_.size(); ++i) {
        const Token &tk = toks_[i];
        if (!isI(tk, "unordered_map") && !isI(tk, "unordered_set"))
            continue;
        std::size_t j = i + 1;
        if (!at(j) || !isP(*at(j), "<"))
            continue;
        int angle = 0;
        for (; j < toks_.size(); ++j) {
            if (isP(toks_[j], "<"))
                ++angle;
            else if (isP(toks_[j], ">") && --angle == 0)
                break;
        }
        ++j;
        while (at(j) && (isP(*at(j), "&") || isP(*at(j), "*") ||
                         isI(*at(j), "const")))
            ++j;
        if (at(j) && at(j)->kind == Tok::kIdent)
            tracked.insert(at(j)->text);
    }
    if (tracked.empty())
        return;

    // Pass 2: range-for over a tracked name, or explicit .begin().
    for (std::size_t i = 0; i < toks_.size(); ++i) {
        const Token &tk = toks_[i];
        if (tk.kind == Tok::kIdent && tracked.count(tk.text) &&
            at(i + 1) && at(i + 2) && at(i + 3) &&
            (isP(*at(i + 1), ".") || isP(*at(i + 1), "->")) &&
            (isI(*at(i + 2), "begin") || isI(*at(i + 2), "cbegin")) &&
            isP(*at(i + 3), "(")) {
            add("unordered-iter", tk.line,
                "iterating unordered container '" + tk.text +
                    "' in an order-sensitive path: bucket order is "
                    "implementation-defined and must not reach "
                    "output, fingerprints, or decisions");
        }
        if (!isI(tk, "for") || !at(i + 1) || !isP(*at(i + 1), "("))
            continue;
        int pd = 0;
        std::size_t colon = 0;
        bool plain_for = false;
        std::size_t j = i + 1;
        for (; j < toks_.size(); ++j) {
            if (isP(toks_[j], "("))
                ++pd;
            else if (isP(toks_[j], ")") && --pd == 0)
                break;
            else if (pd == 1 && isP(toks_[j], ";"))
                plain_for = true;
            else if (pd == 1 && isP(toks_[j], ":") && colon == 0)
                colon = j;
        }
        if (plain_for || colon == 0)
            continue;
        for (std::size_t k = colon + 1; k < j; ++k) {
            if (toks_[k].kind == Tok::kIdent &&
                tracked.count(toks_[k].text)) {
                add("unordered-iter", toks_[i].line,
                    "range-for over unordered container '" +
                        toks_[k].text +
                        "' in an order-sensitive path: bucket order "
                        "is implementation-defined and must not "
                        "reach output, fingerprints, or decisions");
                break;
            }
        }
    }
}

void
RuleRunner::ruleAtomicOrder()
{
    static const std::set<std::string> ops = {
        "load",      "store",     "exchange",
        "fetch_add", "fetch_sub", "fetch_and",
        "fetch_or",  "fetch_xor", "compare_exchange_weak",
        "compare_exchange_strong"};
    const bool implicit_on = on("atomic-implicit-order");
    const bool relaxed_on = on("atomic-relaxed");
    for (std::size_t i = 0; i < toks_.size(); ++i) {
        const Token &tk = toks_[i];
        if (tk.kind != Tok::kIdent)
            continue;
        if (relaxed_on &&
            (tk.text == "memory_order_relaxed" ||
             (tk.text == "memory_order" && at(i + 1) &&
              isP(*at(i + 1), "::") && at(i + 2) &&
              isI(*at(i + 2), "relaxed")))) {
            add("atomic-relaxed", tk.line,
                "memory_order_relaxed outside src/obs/ and logging: "
                "relaxed is right for stats and wrong for "
                "synchronization — justify per site");
        }
        if (!implicit_on || !ops.count(tk.text))
            continue;
        const Token *pv = prev(i);
        const Token *nx = at(i + 1);
        if (!pv || !(isP(*pv, ".") || isP(*pv, "->")) || !nx ||
            !isP(*nx, "("))
            continue;
        int pd = 0;
        bool has_order = false;
        for (std::size_t j = i + 1; j < toks_.size(); ++j) {
            if (isP(toks_[j], "("))
                ++pd;
            else if (isP(toks_[j], ")") && --pd == 0)
                break;
            else if (toks_[j].kind == Tok::kIdent &&
                     toks_[j].text.rfind("memory_order", 0) == 0)
                has_order = true;
        }
        if (!has_order)
            add("atomic-implicit-order", tk.line,
                "atomic '." + tk.text +
                    "()' without an explicit memory_order: implicit "
                    "seq_cst hides the intended ordering — spell "
                    "the order");
    }
}

void
RuleRunner::ruleMetricName()
{
    static const std::set<std::string> regs = {"counter", "gauge",
                                               "histogram"};
    for (std::size_t i = 0; i < toks_.size(); ++i) {
        const Token &tk = toks_[i];
        if (tk.kind != Tok::kIdent)
            continue;
        bool is_site = false;
        std::string what;
        if (tk.text == "QPAD_SPAN" && at(i + 1) &&
            isP(*at(i + 1), "(")) {
            is_site = true;
            what = "QPAD_SPAN";
        } else if (regs.count(tk.text) && at(i + 1) &&
                   isP(*at(i + 1), "(") && i >= 2 &&
                   isP(toks_[i - 1], "::") &&
                   isI(toks_[i - 2], "obs")) {
            is_site = true;
            what = "obs::" + tk.text;
        }
        if (!is_site)
            continue;
        const Token *name = at(i + 2);
        if (!name || name->kind != Tok::kString) {
            add("metric-name", tk.line,
                what + " name must be a string literal so the "
                       "exported series set is statically known");
        } else if (!validMetricName(name->text)) {
            add("metric-name", tk.line,
                what + " name '" + name->text +
                    "' does not match the family.name grammar "
                    "([a-z][a-z0-9_]*(\\.[a-z][a-z0-9_]*)+)");
        }
    }
}

void
RuleRunner::ruleRawLog()
{
    static const std::set<std::string> printfs = {"fprintf",
                                                  "vfprintf", "fputs",
                                                  "fputc", "fwrite"};
    for (std::size_t i = 0; i < toks_.size(); ++i) {
        const Token &tk = toks_[i];
        if (tk.kind != Tok::kIdent)
            continue;
        // Any mention of std::cerr counts: passing the stream into a
        // writer is still a raw stderr write.
        if (tk.text == "cerr") {
            add("rawlog", tk.line,
                "raw std::cerr write: route diagnostics through "
                "obs::log (structured, leveled, request-id tagged) "
                "or justify the raw site");
            continue;
        }
        if (!printfs.count(tk.text))
            continue;
        const Token *nx = at(i + 1);
        const Token *pv = prev(i);
        const bool member = pv && (isP(*pv, ".") || isP(*pv, "->"));
        if (member || !nx || !isP(*nx, "("))
            continue;
        int pd = 0;
        bool to_stderr = false;
        for (std::size_t j = i + 1; j < toks_.size(); ++j) {
            if (isP(toks_[j], "("))
                ++pd;
            else if (isP(toks_[j], ")") && --pd == 0)
                break;
            else if (isI(toks_[j], "stderr"))
                to_stderr = true;
        }
        if (to_stderr)
            add("rawlog", tk.line,
                "'" + tk.text +
                    "(stderr, ...)': route diagnostics through "
                    "obs::log (structured, leveled, request-id "
                    "tagged) or justify the raw site");
    }
}

void
RuleRunner::ruleRawIo()
{
    // File I/O in the persistent cache must go through the
    // fault::fio shims so every site is a named failpoint — a raw
    // call is invisible to fault injection and skips the torn-write
    // and crash-kill semantics the torture tests rely on. The set
    // covers stdio, the POSIX durability/locking calls, and the
    // filesystem mutations compaction performs.
    static const std::set<std::string> calls = {
        "fopen",     "freopen", "fread",   "fwrite", "fflush",
        "fclose",    "fsync",   "fdatasync", "ftruncate", "flock",
        "rename",    "remove",  "unlink",  "truncate", "resize_file"};
    for (std::size_t i = 0; i < toks_.size(); ++i) {
        const Token &tk = toks_[i];
        if (tk.kind != Tok::kIdent || !calls.count(tk.text))
            continue;
        const Token *nx = at(i + 1);
        const Token *pv = prev(i);
        const bool member = pv && (isP(*pv, ".") || isP(*pv, "->"));
        if (member || !nx || !isP(*nx, "("))
            continue;
        add("raw-io", tk.line,
            "raw '" + tk.text +
                "()' in the persistent cache: use the fault::fio "
                "shims (fault/fio.hh) so the site is a named "
                "failpoint, or justify the raw call");
    }
}

std::vector<Finding>
RuleRunner::run()
{
    if (on("no-rand"))
        ruleNoRand();
    if (on("no-wallclock"))
        ruleNoWallclock();
    if (on("no-uninit"))
        ruleNoUninit();
    if (on("rng-draw-site"))
        ruleRngDrawSite();
    if (on("unordered-iter"))
        ruleUnorderedIter();
    if (on("atomic-implicit-order") || on("atomic-relaxed"))
        ruleAtomicOrder();
    if (on("metric-name"))
        ruleMetricName();
    if (on("rawlog"))
        ruleRawLog();
    if (on("raw-io"))
        ruleRawIo();
    return std::move(findings_);
}

} // namespace

FileReport
analyzeFile(const std::string &relpath, std::string_view content,
            const Config &cfg)
{
    FileReport report;
    const LexResult lx = lex(content);
    std::vector<ParsedSuppression> supps =
        parseSuppressions(lx.comments, lx.tokens);

    RuleRunner runner(relpath, lx, cfg);
    report.findings = runner.run();

    for (Finding &f : report.findings) {
        for (ParsedSuppression &s : supps) {
            if (s.justified && s.rule == f.rule &&
                f.line >= s.cover_from && f.line <= s.cover_to) {
                f.suppressed = true;
                f.justification = s.justification;
                s.used = true;
                break;
            }
        }
    }

    for (const ParsedSuppression &s : supps) {
        if (!s.justified) {
            report.findings.push_back(Finding{
                relpath, s.line, "suppression-justification",
                "suppression" +
                    (s.rule.empty() ? std::string()
                                    : " for '" + s.rule + "'") +
                    " carries no quoted justification — say why the "
                    "violation is sound",
                false, ""});
        } else if (!s.used) {
            report.findings.push_back(Finding{
                relpath, s.line, "suppression-unused",
                "suppression for '" + s.rule +
                    "' matched no finding on its line — stale or "
                    "misplaced; remove it",
                false, ""});
        }
        report.suppressions.push_back(SuppressionRecord{
            relpath, s.line, s.rule, s.justification});
    }

    std::sort(report.findings.begin(), report.findings.end(),
              [](const Finding &a, const Finding &b) {
                  if (a.line != b.line)
                      return a.line < b.line;
                  return a.rule < b.rule;
              });
    return report;
}

namespace
{

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size() + 8);
    for (char c : s) {
        switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\t': out += "\\t"; break;
        case '\r': out += "\\r"; break;
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

} // namespace

std::string
renderJson(const std::vector<Finding> &findings, std::size_t files,
           std::size_t suppression_count)
{
    std::size_t unsuppressed = 0;
    for (const Finding &f : findings)
        if (!f.suppressed)
            ++unsuppressed;

    std::string out = "{\n  \"findings\": [";
    bool first = true;
    for (const Finding &f : findings) {
        out += first ? "\n" : ",\n";
        first = false;
        out += "    {\"file\":\"" + jsonEscape(f.file) +
               "\",\"line\":" + std::to_string(f.line) +
               ",\"rule\":\"" + jsonEscape(f.rule) +
               "\",\"message\":\"" + jsonEscape(f.message) +
               "\",\"suppressed\":" +
               (f.suppressed ? "true" : "false");
        if (f.suppressed)
            out += ",\"justification\":\"" +
                   jsonEscape(f.justification) + "\"";
        out += "}";
    }
    out += "\n  ],\n  \"summary\": {\"files\":" +
           std::to_string(files) +
           ",\"findings\":" + std::to_string(findings.size()) +
           ",\"unsuppressed\":" + std::to_string(unsuppressed) +
           ",\"suppressions\":" + std::to_string(suppression_count) +
           "}\n}\n";
    return out;
}

} // namespace qlint
