#include <cstddef>
#include <string>
#include <vector>

#include "crn_analyze/passes.h"
#include "crn_analyze/rules.h"

namespace crn::analyze {

namespace {

bool IsPunct(const Token& token, char c) {
  return token.kind == TokenKind::kPunct && token.text.size() == 1 &&
         token.text[0] == c;
}

bool IsConstLikeKeyword(const Token& token) {
  return token.kind == TokenKind::kIdentifier &&
         (token.text == "const" || token.text == "constexpr" ||
          token.text == "constinit");
}

// Classifies the declaration following a `static` / `thread_local` keyword.
// A variable declaration reaches `=`, `;`, or a brace initializer before any
// `(`; anything with `(` first is a function (or constructor-style init,
// which we accept missing — the codebase brace-initializes). Const-qualified
// declarations are immutable and therefore safe to share.
bool IsMutableVariableDecl(const std::vector<Token>& tokens, std::size_t i) {
  constexpr std::size_t kMaxDeclTokens = 48;
  for (std::size_t j = i + 1; j < tokens.size() && j < i + kMaxDeclTokens;
       ++j) {
    const Token& token = tokens[j];
    if (IsConstLikeKeyword(token)) return false;
    if (IsPunct(token, '(')) return false;  // function declaration
    if (IsPunct(token, '=') || IsPunct(token, ';') || IsPunct(token, '{')) {
      return true;
    }
    if (IsPunct(token, '}')) return false;  // ran out of the scope
  }
  return false;
}

}  // namespace

std::vector<Finding> RunConcurrencyDisciplinePass(const SourceFile& file) {
  std::vector<Finding> findings;
  if (!StartsWith(file.logical_path, "src/")) return findings;
  const std::vector<Token>& tokens = file.lex.tokens;

  auto add = [&](int line, std::string message) {
    const std::size_t index = line > 0 ? static_cast<std::size_t>(line - 1) : 0;
    if (index < file.raw_lines.size() &&
        file.raw_lines[index].find("crn-lint-ok") != std::string::npos) {
      return;
    }
    const std::string& scrubbed =
        index < file.lex.scrubbed.size() ? file.lex.scrubbed[index] : "";
    findings.push_back(Finding{file.logical_path, line,
                               "concurrency-discipline", std::move(message),
                               NormalizeForFingerprint(scrubbed), false});
  };

  for (std::size_t i = 0; i < tokens.size(); ++i) {
    const Token& token = tokens[i];
    if (token.kind != TokenKind::kIdentifier) continue;

    // Mutable static / thread_local state: every RunSweep cell callback on
    // every worker thread in the process can reach it, so it is both a data race
    // and a determinism leak across --jobs values.
    if ((token.text == "static" || token.text == "thread_local") &&
        IsMutableVariableDecl(tokens, i)) {
      add(token.line,
          "mutable " + token.text +
              " state is shared across ParallelRunner cells on every worker "
              "thread (data race + determinism leak across --jobs); pass "
              "state through the cell's context instead");
    }

    // A lambda with a by-reference capture submitted straight to the pool:
    // the captured locals are shared mutable state across jobs unless every
    // capture is immutable — which the analyzer cannot prove, so the site
    // must justify itself with a crn-lint-ok reason.
    if (token.text == "Submit" && i + 3 < tokens.size() &&
        IsPunct(tokens[i + 1], '(') && IsPunct(tokens[i + 2], '[') &&
        IsPunct(tokens[i + 3], '&')) {
      add(token.line,
          "by-reference capture submitted to a thread pool shares mutable "
          "locals across jobs; capture by value, or justify with "
          "crn-lint-ok why every by-ref capture is safe");
    }
  }

  return findings;
}

}  // namespace crn::analyze
