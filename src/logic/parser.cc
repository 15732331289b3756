#include "logic/parser.h"

#include <algorithm>
#include <cctype>
#include <optional>
#include <string>
#include <vector>

namespace strq {

namespace {

enum class TokKind {
  kIdent,
  kLiteral,  // 'string'
  kLParen,
  kRParen,
  kLBracket,
  kRBracket,
  kComma,
  kDot,
  kEq,       // =
  kLeq,      // <=
  kLt,       // <
  kAnd,      // &
  kOr,       // |
  kNot,      // !
  kImplies,  // ->
  kIff,      // <->
  kTilde,    // ~k similarity comparator; token text carries the digits
  kEnd,
};

struct Token {
  TokKind kind;
  std::string text;  // ident name or literal value
  size_t pos;
};

Result<std::vector<Token>> Lex(const std::string& input) {
  std::vector<Token> out;
  size_t i = 0;
  while (i < input.size()) {
    char c = input[i];
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    size_t pos = i;
    // Identifiers may be alphanumeric so that single digits work as letter
    // parameters (last[1](x)) and variables like c0 lex naturally.
    if (std::isalnum(static_cast<unsigned char>(c)) || c == '_') {
      size_t j = i;
      while (j < input.size() &&
             (std::isalnum(static_cast<unsigned char>(input[j])) ||
              input[j] == '_')) {
        ++j;
      }
      out.push_back({TokKind::kIdent, input.substr(i, j - i), pos});
      i = j;
      continue;
    }
    if (c == '\'') {
      std::string value;
      ++i;
      bool closed = false;
      while (i < input.size()) {
        if (input[i] == '\\' && i + 1 < input.size()) {
          value += input[i + 1];
          i += 2;
        } else if (input[i] == '\'') {
          ++i;
          closed = true;
          break;
        } else {
          value += input[i++];
        }
      }
      if (!closed) {
        return InvalidArgumentError("unterminated string literal at position " +
                                    std::to_string(pos));
      }
      out.push_back({TokKind::kLiteral, value, pos});
      continue;
    }
    auto push1 = [&](TokKind k) {
      out.push_back({k, std::string(1, c), pos});
      ++i;
    };
    switch (c) {
      case '(':
        push1(TokKind::kLParen);
        break;
      case ')':
        push1(TokKind::kRParen);
        break;
      case '[':
        push1(TokKind::kLBracket);
        break;
      case ']':
        push1(TokKind::kRBracket);
        break;
      case ',':
        push1(TokKind::kComma);
        break;
      case '.':
        push1(TokKind::kDot);
        break;
      case '=':
        push1(TokKind::kEq);
        break;
      case '&':
        push1(TokKind::kAnd);
        break;
      case '|':
        push1(TokKind::kOr);
        break;
      case '!':
        push1(TokKind::kNot);
        break;
      case '<':
        if (input.compare(i, 3, "<->") == 0) {
          out.push_back({TokKind::kIff, "<->", pos});
          i += 3;
        } else if (input.compare(i, 2, "<=") == 0) {
          out.push_back({TokKind::kLeq, "<=", pos});
          i += 2;
        } else {
          push1(TokKind::kLt);
        }
        break;
      case '-':
        if (input.compare(i, 2, "->") == 0) {
          out.push_back({TokKind::kImplies, "->", pos});
          i += 2;
        } else {
          return InvalidArgumentError("stray '-' at position " +
                                      std::to_string(pos));
        }
        break;
      case '~': {
        // ~k edit-distance comparator: the digits are part of the token.
        size_t j = i + 1;
        while (j < input.size() &&
               std::isdigit(static_cast<unsigned char>(input[j]))) {
          ++j;
        }
        if (j == i + 1) {
          return InvalidArgumentError(
              "expected edit budget digits after '~' at position " +
              std::to_string(pos));
        }
        out.push_back({TokKind::kTilde, input.substr(i + 1, j - i - 1), pos});
        i = j;
        break;
      }
      default:
        return InvalidArgumentError(std::string("unexpected character '") + c +
                                    "' at position " + std::to_string(pos));
    }
  }
  out.push_back({TokKind::kEnd, "", input.size()});
  return out;
}

class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  Result<FormulaPtr> ParseFormulaAll() {
    STRQ_ASSIGN_OR_RETURN(FormulaPtr f, ParseFormula());
    STRQ_RETURN_IF_ERROR(Expect(TokKind::kEnd, "end of input"));
    return f;
  }

  Result<TermPtr> ParseTermAll() {
    STRQ_ASSIGN_OR_RETURN(TermPtr t, ParseTermExpr());
    STRQ_RETURN_IF_ERROR(Expect(TokKind::kEnd, "end of input"));
    return t;
  }

 private:
  const Token& Peek() const { return tokens_[pos_]; }
  const Token& PeekAt(size_t offset) const {
    size_t i = pos_ + offset;
    return i < tokens_.size() ? tokens_[i] : tokens_.back();
  }
  Token Take() { return tokens_[pos_++]; }
  bool Accept(TokKind kind) {
    if (Peek().kind == kind) {
      ++pos_;
      return true;
    }
    return false;
  }
  bool AcceptIdent(const std::string& word) {
    if (Peek().kind == TokKind::kIdent && Peek().text == word) {
      ++pos_;
      return true;
    }
    return false;
  }
  Status Expect(TokKind kind, const std::string& what) {
    if (Peek().kind != kind) {
      return InvalidArgumentError("expected " + what + " at position " +
                                  std::to_string(Peek().pos) + ", found '" +
                                  Peek().text + "'");
    }
    ++pos_;
    return Status::Ok();
  }

  static Status TooDeep() {
    return InvalidArgumentError("formula nested deeper than " +
                                std::to_string(kMaxNesting));
  }

  // Runs `parse` one nesting level deeper. Every recursive descent (a
  // parenthesis, '!', a quantifier body, the right side of '->', a function
  // argument) goes through here, so input nested past kMaxNesting is refused
  // with a Status before it can overflow the stack.
  template <typename Fn>
  auto Nested(Fn parse) -> decltype(parse()) {
    if (depth_ >= kMaxNesting) return TooDeep();
    ++depth_;
    auto result = parse();
    --depth_;
    return result;
  }

  // Records a connective or quantifier node over children of heights `a`
  // and `b`. A left-deep chain `a | b | c ...` grows the AST one level per
  // link without recursing in the parser, so node heights are bounded here
  // by the same kMaxNesting: every later pass over the AST (Simplify, the
  // planner, compilation) recurses once per level.
  Status Grow(int a, int b = 0) {
    height_ = std::max(a, b) + 1;
    if (height_ > kMaxNesting) return TooDeep();
    return Status::Ok();
  }

  Result<FormulaPtr> ParseFormula() {
    // Quantifiers scope over everything to their right.
    if (Peek().kind == TokKind::kIdent &&
        (Peek().text == "exists" || Peek().text == "forall")) {
      bool is_exists = Take().text == "exists";
      if (Peek().kind != TokKind::kIdent) {
        return InvalidArgumentError("expected variable after quantifier");
      }
      std::string var = Take().text;
      QuantRange range = QuantRange::kAll;
      if (AcceptIdent("in")) {
        STRQ_RETURN_IF_ERROR(ExpectAdom());
        range = QuantRange::kAdom;
      } else if (AcceptIdent("pre")) {
        STRQ_RETURN_IF_ERROR(ExpectAdom());
        range = QuantRange::kPrefixDom;
      } else if (AcceptIdent("len")) {
        STRQ_RETURN_IF_ERROR(ExpectAdom());
        range = QuantRange::kLenDom;
      }
      STRQ_RETURN_IF_ERROR(Expect(TokKind::kDot, "'.' after quantifier"));
      STRQ_ASSIGN_OR_RETURN(FormulaPtr body,
                            Nested([this] { return ParseFormula(); }));
      STRQ_RETURN_IF_ERROR(Grow(height_));
      return is_exists ? FExists(var, std::move(body), range)
                       : FForall(var, std::move(body), range);
    }
    return ParseIff();
  }

  Status ExpectAdom() {
    if (!AcceptIdent("adom")) {
      return InvalidArgumentError("expected 'adom' in quantifier range");
    }
    return Status::Ok();
  }

  Result<FormulaPtr> ParseIff() {
    STRQ_ASSIGN_OR_RETURN(FormulaPtr left, ParseImplies());
    while (Accept(TokKind::kIff)) {
      int left_height = height_;
      STRQ_ASSIGN_OR_RETURN(FormulaPtr right, ParseImplies());
      STRQ_RETURN_IF_ERROR(Grow(left_height, height_));
      left = FIff(std::move(left), std::move(right));
    }
    return left;
  }

  Result<FormulaPtr> ParseImplies() {
    STRQ_ASSIGN_OR_RETURN(FormulaPtr left, ParseOr());
    if (Accept(TokKind::kImplies)) {
      int left_height = height_;
      STRQ_ASSIGN_OR_RETURN(FormulaPtr right,  // right assoc
                            Nested([this] { return ParseImplies(); }));
      STRQ_RETURN_IF_ERROR(Grow(left_height, height_));
      return FImplies(std::move(left), std::move(right));
    }
    return left;
  }

  Result<FormulaPtr> ParseOr() {
    STRQ_ASSIGN_OR_RETURN(FormulaPtr left, ParseAnd());
    while (Accept(TokKind::kOr)) {
      int left_height = height_;
      STRQ_ASSIGN_OR_RETURN(FormulaPtr right, ParseAnd());
      STRQ_RETURN_IF_ERROR(Grow(left_height, height_));
      left = FOr(std::move(left), std::move(right));
    }
    return left;
  }

  Result<FormulaPtr> ParseAnd() {
    STRQ_ASSIGN_OR_RETURN(FormulaPtr left, ParseUnary());
    while (Accept(TokKind::kAnd)) {
      int left_height = height_;
      STRQ_ASSIGN_OR_RETURN(FormulaPtr right, ParseUnary());
      STRQ_RETURN_IF_ERROR(Grow(left_height, height_));
      left = FAnd(std::move(left), std::move(right));
    }
    return left;
  }

  Result<FormulaPtr> ParseUnary() {
    if (Accept(TokKind::kNot)) {
      STRQ_ASSIGN_OR_RETURN(FormulaPtr f,
                            Nested([this] { return ParseUnary(); }));
      STRQ_RETURN_IF_ERROR(Grow(height_));
      return FNot(std::move(f));
    }
    if (Peek().kind == TokKind::kIdent &&
        (Peek().text == "exists" || Peek().text == "forall")) {
      return ParseFormula();
    }
    height_ = 0;  // an atom, or a parenthesized formula that sets its own
    if (AcceptIdent("true")) return FTrue();
    if (AcceptIdent("false")) return FFalse();
    if (Accept(TokKind::kLParen)) {
      STRQ_ASSIGN_OR_RETURN(FormulaPtr f,
                            Nested([this] { return ParseFormula(); }));
      STRQ_RETURN_IF_ERROR(Expect(TokKind::kRParen, "')'"));
      return f;
    }
    return ParseAtom();
  }

  static bool IsPredName(const std::string& name) {
    return name == "step" || name == "last" || name == "eqlen" ||
           name == "leqlen" || name == "lexleq" || name == "adom" ||
           name == "like" || name == "member" || name == "suffixin";
  }

  static bool IsFuncName(const std::string& name) {
    return name == "append" || name == "prepend" || name == "trim" ||
           name == "lcp" || name == "concat" || name == "insert";
  }

  Result<FormulaPtr> ParseAtom() {
    // Predicate call?
    if (Peek().kind == TokKind::kIdent && IsPredName(Peek().text) &&
        (PeekAt(1).kind == TokKind::kLParen ||
         PeekAt(1).kind == TokKind::kLBracket)) {
      return ParsePredCall();
    }
    // Relation call: IDENT '(' not matching a function name.
    if (Peek().kind == TokKind::kIdent && !IsFuncName(Peek().text) &&
        PeekAt(1).kind == TokKind::kLParen) {
      std::string name = Take().text;
      STRQ_ASSIGN_OR_RETURN(std::vector<TermPtr> args, ParseArgList());
      return FRelation(std::move(name), std::move(args));
    }
    // Otherwise: term comparator term.
    STRQ_ASSIGN_OR_RETURN(TermPtr lhs, ParseTermExpr());
    PredKind pred;
    if (Accept(TokKind::kEq)) {
      pred = PredKind::kEq;
    } else if (Accept(TokKind::kLeq)) {
      pred = PredKind::kPrefix;
    } else if (Accept(TokKind::kLt)) {
      pred = PredKind::kStrictPrefix;
    } else if (Peek().kind == TokKind::kTilde) {
      // t ~k 'word': bounded-edit-distance similarity atom. The right-hand
      // side must be a literal — the Levenshtein automaton is built from a
      // fixed word, not from another track.
      Token tilde = Take();
      if (tilde.text.size() > 4) {
        return InvalidArgumentError("edit budget ~" + tilde.text +
                                    " is out of range");
      }
      int distance = 0;
      for (char c : tilde.text) distance = distance * 10 + (c - '0');
      if (Peek().kind != TokKind::kLiteral) {
        return InvalidArgumentError(
            "expected a quoted word after ~" + tilde.text + " at position " +
            std::to_string(Peek().pos));
      }
      std::string word = Take().text;
      return FNear(std::move(lhs), std::move(word), distance);
    } else {
      return InvalidArgumentError("expected comparison operator at position " +
                                  std::to_string(Peek().pos));
    }
    STRQ_ASSIGN_OR_RETURN(TermPtr rhs, ParseTermExpr());
    return FPred(pred, {std::move(lhs), std::move(rhs)});
  }

  Result<char> ParseLetterParam() {
    STRQ_RETURN_IF_ERROR(Expect(TokKind::kLBracket, "'['"));
    if (Peek().kind != TokKind::kIdent || Peek().text.size() != 1) {
      return InvalidArgumentError("expected a single-letter parameter");
    }
    char letter = Take().text[0];
    STRQ_RETURN_IF_ERROR(Expect(TokKind::kRBracket, "']'"));
    return letter;
  }

  Result<std::vector<TermPtr>> ParseArgList() {
    STRQ_RETURN_IF_ERROR(Expect(TokKind::kLParen, "'('"));
    std::vector<TermPtr> args;
    if (Accept(TokKind::kRParen)) return args;
    while (true) {
      STRQ_ASSIGN_OR_RETURN(TermPtr t,
                            Nested([this] { return ParseTermExpr(); }));
      args.push_back(std::move(t));
      if (Accept(TokKind::kRParen)) break;
      STRQ_RETURN_IF_ERROR(Expect(TokKind::kComma, "','"));
    }
    return args;
  }

  Result<PatternSyntax> ParseSyntaxName() {
    if (AcceptIdent("regex")) return PatternSyntax::kRegex;
    if (AcceptIdent("like")) return PatternSyntax::kLikePattern;
    if (AcceptIdent("similar")) return PatternSyntax::kSimilar;
    return InvalidArgumentError(
        "expected pattern syntax: regex, like, or similar");
  }

  Result<FormulaPtr> ParsePredCall() {
    std::string name = Take().text;
    if (name == "last") {
      STRQ_ASSIGN_OR_RETURN(char letter, ParseLetterParam());
      STRQ_ASSIGN_OR_RETURN(std::vector<TermPtr> args, ParseArgList());
      if (args.size() != 1) {
        return InvalidArgumentError("last[] takes one argument");
      }
      return FLast(letter, args[0]);
    }
    if (name == "like" || name == "member" || name == "suffixin") {
      STRQ_RETURN_IF_ERROR(Expect(TokKind::kLParen, "'('"));
      size_t term_count = name == "suffixin" ? 2 : 1;
      std::vector<TermPtr> terms;
      for (size_t i = 0; i < term_count; ++i) {
        STRQ_ASSIGN_OR_RETURN(TermPtr t, ParseTermExpr());
        terms.push_back(std::move(t));
        STRQ_RETURN_IF_ERROR(Expect(TokKind::kComma, "','"));
      }
      if (Peek().kind != TokKind::kLiteral) {
        return InvalidArgumentError("expected pattern literal in " + name);
      }
      std::string pattern = Take().text;
      PatternSyntax syntax = name == "like" ? PatternSyntax::kLikePattern
                                            : PatternSyntax::kRegex;
      if (name != "like" && Accept(TokKind::kComma)) {
        STRQ_ASSIGN_OR_RETURN(syntax, ParseSyntaxName());
      }
      STRQ_RETURN_IF_ERROR(Expect(TokKind::kRParen, "')'"));
      if (name == "like") return FLike(terms[0], std::move(pattern));
      if (name == "member") {
        return FMember(terms[0], std::move(pattern), syntax);
      }
      return FSuffixIn(terms[0], terms[1], std::move(pattern), syntax);
    }
    // Fixed-arity term predicates.
    STRQ_ASSIGN_OR_RETURN(std::vector<TermPtr> args, ParseArgList());
    auto need = [&](size_t n) -> Status {
      if (args.size() != n) {
        return InvalidArgumentError(name + " takes " + std::to_string(n) +
                                    " argument(s)");
      }
      return Status::Ok();
    };
    if (name == "step") {
      STRQ_RETURN_IF_ERROR(need(2));
      return FPred(PredKind::kOneStep, std::move(args));
    }
    if (name == "eqlen") {
      STRQ_RETURN_IF_ERROR(need(2));
      return FPred(PredKind::kEqLen, std::move(args));
    }
    if (name == "leqlen") {
      STRQ_RETURN_IF_ERROR(need(2));
      return FPred(PredKind::kLeqLen, std::move(args));
    }
    if (name == "lexleq") {
      STRQ_RETURN_IF_ERROR(need(2));
      return FPred(PredKind::kLexLeq, std::move(args));
    }
    if (name == "adom") {
      STRQ_RETURN_IF_ERROR(need(1));
      return FPred(PredKind::kAdom, std::move(args));
    }
    return InternalError("unhandled predicate " + name);
  }

  Result<TermPtr> ParseTermExpr() {
    if (Peek().kind == TokKind::kLiteral) return TConst(Take().text);
    if (Peek().kind != TokKind::kIdent) {
      return InvalidArgumentError("expected term at position " +
                                  std::to_string(Peek().pos));
    }
    std::string name = Peek().text;
    if (IsFuncName(name)) {
      Take();
      if (name == "lcp" || name == "concat") {
        STRQ_ASSIGN_OR_RETURN(std::vector<TermPtr> args, ParseArgList());
        if (args.size() != 2) {
          return InvalidArgumentError(name + " takes two arguments");
        }
        return name == "lcp" ? TLcp(args[0], args[1])
                             : TConcat(args[0], args[1]);
      }
      if (name == "insert") {
        STRQ_ASSIGN_OR_RETURN(char letter, ParseLetterParam());
        STRQ_ASSIGN_OR_RETURN(std::vector<TermPtr> args, ParseArgList());
        if (args.size() != 2) {
          return InvalidArgumentError("insert[] takes two arguments");
        }
        return TInsert(letter, args[0], args[1]);
      }
      STRQ_ASSIGN_OR_RETURN(char letter, ParseLetterParam());
      STRQ_ASSIGN_OR_RETURN(std::vector<TermPtr> args, ParseArgList());
      if (args.size() != 1) {
        return InvalidArgumentError(name + "[] takes one argument");
      }
      if (name == "append") return TAppend(letter, args[0]);
      if (name == "prepend") return TPrepend(letter, args[0]);
      return TTrim(letter, args[0]);
    }
    return TVar(Take().text);
  }

  static constexpr int kMaxNesting = 1000;

  std::vector<Token> tokens_;
  size_t pos_ = 0;
  int depth_ = 0;
  // Height of the formula the last Parse* call returned: 0 for an atom, one
  // more than its tallest child for a connective or quantifier.
  int height_ = 0;
};

}  // namespace

Result<FormulaPtr> ParseFormula(const std::string& input) {
  STRQ_ASSIGN_OR_RETURN(std::vector<Token> tokens, Lex(input));
  return Parser(std::move(tokens)).ParseFormulaAll();
}

Result<TermPtr> ParseTerm(const std::string& input) {
  STRQ_ASSIGN_OR_RETURN(std::vector<Token> tokens, Lex(input));
  return Parser(std::move(tokens)).ParseTermAll();
}

}  // namespace strq
