// Index construction: walk the tree, lex every C++ file, and extract the
// cross-file symbols the rules need. Extraction is purely lexical but
// token-exact: nothing here is fooled by comments, strings, or line breaks.
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "analyzer.h"

namespace dpulint {
namespace fs = std::filesystem;

namespace {

bool cpp_ext(const fs::path& p) {
  auto e = p.extension().string();
  return e == ".h" || e == ".hpp" || e == ".cc" || e == ".cpp";
}

bool is_ident(const Token& t) { return t.kind == Tok::kIdent; }
bool is_punct(const Token& t, const char* s) {
  return t.kind == Tok::kPunct && t.text == s;
}

/// Walks back from the `>` at position `p` to its matching `<`; returns the
/// position of `<`, or npos when unmatched. Good enough for declaration
/// return types (never sees shift expressions there).
std::size_t match_angle_back(const std::vector<Token>& t, std::size_t p) {
  int depth = 0;
  for (std::size_t i = p + 1; i-- > 0;) {
    if (is_punct(t[i], ">")) ++depth;
    else if (is_punct(t[i], "<") && --depth == 0) return i;
  }
  return std::string::npos;
}

std::size_t match_paren_fwd(const std::vector<Token>& t, std::size_t open) {
  int depth = 0;
  for (std::size_t i = open; i < t.size(); ++i) {
    if (is_punct(t[i], "(")) ++depth;
    else if (is_punct(t[i], ")") && --depth == 0) return i;
  }
  return std::string::npos;
}

/// Extracts the struct registry and the channel variant aliases from the
/// protocol header (real tree or self-test fixture tree).
void scan_protocol(const FileUnit& f, Index& idx) {
  const auto& t = f.lx.tokens;
  for (std::size_t i = 0; i < t.size(); ++i) {
    // using Name = [std::]variant<A, ns::B, ...>;
    if (is_ident(t[i]) && t[i].text == "using" && i + 2 < t.size() &&
        is_ident(t[i + 1]) && is_punct(t[i + 2], "=")) {
      std::size_t j = i + 3;
      if (j + 1 < t.size() && is_ident(t[j]) && t[j].text == "std" &&
          is_punct(t[j + 1], "::"))
        j += 2;
      if (j + 1 >= t.size() || !is_ident(t[j]) || t[j].text != "variant" ||
          !is_punct(t[j + 1], "<"))
        continue;
      // Top-level arguments end at ',' or the closing '>'; each
      // alternative's name is its last identifier (drops qualifiers).
      int depth = 1;
      std::string last;
      for (std::size_t k = j + 2; k < t.size() && depth > 0; ++k) {
        if (is_punct(t[k], "<")) ++depth;
        else if (is_punct(t[k], ">")) --depth;
        if (depth == 1 && is_ident(t[k])) last = t[k].text;
        if ((depth == 1 && is_punct(t[k], ",")) || depth == 0) {
          if (!last.empty()) idx.variant_alternatives.insert(last);
          last.clear();
        }
      }
      continue;
    }
    // struct Name ... { members };
    if (is_ident(t[i]) && (t[i].text == "struct" || t[i].text == "class") &&
        i + 1 < t.size() && is_ident(t[i + 1])) {
      std::size_t j = i + 2;
      while (j < t.size() && !is_punct(t[j], "{") && !is_punct(t[j], ";")) ++j;
      if (j >= t.size() || !is_punct(t[j], "{")) continue;
      WireStruct ws;
      ws.name = t[i + 1].text;
      ws.line = t[i + 1].line;
      // Member region: split at ';' at depth 1; skip nested braces (method
      // bodies, nested types) wholesale.
      int depth = 1;
      std::vector<std::size_t> run;  // token positions of the current member
      for (std::size_t k = j + 1; k < t.size() && depth > 0; ++k) {
        if (is_punct(t[k], "{")) {
          ++depth;
          run.clear();
          continue;
        }
        if (is_punct(t[k], "}")) {
          --depth;
          run.clear();
          continue;
        }
        if (depth != 1) continue;
        if (!is_punct(t[k], ";")) {
          run.push_back(k);
          continue;
        }
        if (run.empty()) continue;
        // One member declaration in run[0..]; classify it.
        const Token& first = t[run[0]];
        bool is_static = is_ident(first) && first.text == "static";
        bool has_constexpr_or_const = false;
        int angle = 0;
        for (std::size_t ri : run) {
          if (is_ident(t[ri]) &&
              (t[ri].text == "constexpr" || t[ri].text == "const"))
            has_constexpr_or_const = true;
          if (is_punct(t[ri], "<")) ++angle;
          else if (is_punct(t[ri], ">")) --angle;
          else if (is_punct(t[ri], "&") && angle == 0 && !is_static)
            ws.ref_member_lines.push_back(t[ri].line);
        }
        if (is_static && !has_constexpr_or_const) {
          ws.static_member_lines.push_back(first.line);
        }
        // Declarator name: last identifier before '=' (or last overall).
        std::size_t name_pos = std::string::npos;
        for (std::size_t ri : run) {
          if (is_punct(t[ri], "=")) break;
          if (is_ident(t[ri])) name_pos = ri;
        }
        if (name_pos != std::string::npos && t[name_pos].text == "tenant") {
          ws.has_tenant = true;
          ws.tenant_line = t[name_pos].line;
          ws.tenant_ok = run.size() >= 4 && is_ident(t[run[0]]) &&
                         t[run[0]].text == "int" && run[1] == name_pos &&
                         is_punct(t[run[2]], "=") &&
                         t[run[3]].kind == Tok::kNumber &&
                         t[run[3]].text == "0";
        }
        run.clear();
      }
      idx.wire_structs.push_back(std::move(ws));
    }
  }
}

/// First symbol pass over one file: metric links and declaration sites of (possibly) Status-returning methods.
void scan_symbols(const FileUnit& f, Index& idx,
                  std::set<std::string>& nonstatus_decls) {
  const auto& t = f.lx.tokens;
  bool in_src = f.top == "src";
  for (std::size_t i = 0; i + 1 < t.size(); ++i) {
    // reg.link("name", ...) / reg.link(prefix + "name", ...)
    if (in_src && is_ident(t[i]) && t[i].text == "link" && i > 0 &&
        (is_punct(t[i - 1], ".") || is_punct(t[i - 1], "->")) &&
        is_punct(t[i + 1], "(")) {
      int depth = 0;
      bool plus = false;
      std::string name;
      bool saw_string = false;
      for (std::size_t k = i + 1; k < t.size(); ++k) {
        if (is_punct(t[k], "(") || is_punct(t[k], "[")) ++depth;
        else if (is_punct(t[k], ")") || is_punct(t[k], "]")) {
          if (--depth == 0) break;
        } else if (depth == 1 && is_punct(t[k], ",")) break;
        else if (depth == 1 && is_punct(t[k], "+")) plus = true;
        else if (depth == 1 && t[k].kind == Tok::kString) {
          name += t[k].text;
          saw_string = true;
        }
      }
      if (saw_string)
        idx.metric_links.push_back(Index::LinkSite{name, plus, &f, t[i].line});
    }

    // Declaration-like NAME( sites, to build status/ambiguous method sets.
    if (is_ident(t[i + 1]) && i + 2 < t.size() && is_punct(t[i + 2], "(")) {
      const std::string& name = t[i + 1].text;
      const Token& prev = t[i];
      if (is_punct(prev, ">")) {
        // Possibly `Task<...Status...> name(` — find the Task and the inner
        // type's last identifier.
        std::size_t lt = match_angle_back(t, i);
        if (lt != std::string::npos && lt > 0 && is_ident(t[lt - 1])) {
          std::string inner_last;
          for (std::size_t k = lt + 1; k < i; ++k)
            if (is_ident(t[k])) inner_last = t[k].text;
          if (t[lt - 1].text == "Task" && inner_last == "Status") {
            idx.status_methods.insert(name);
            continue;
          }
        }
        nonstatus_decls.insert(name);
      } else if (is_punct(prev, "::")) {
        // `Task<Status> Cls::name(` — out-of-class definition.
        if (i >= 2 && is_ident(t[i - 1]) && is_punct(t[i - 2], ">")) {
          std::size_t lt = match_angle_back(t, i - 2);
          if (lt != std::string::npos && lt > 0 && is_ident(t[lt - 1]) &&
              t[lt - 1].text == "Task") {
            std::string inner_last;
            for (std::size_t k = lt + 1; k < i - 2; ++k)
              if (is_ident(t[k])) inner_last = t[k].text;
            if (inner_last == "Status") idx.status_methods.insert(name);
          }
        }
      } else if ((is_ident(prev) && prev.text != "co_await" &&
                  prev.text != "co_return" && prev.text != "co_yield") ||
                 is_punct(prev, "&") || is_punct(prev, "*")) {
        nonstatus_decls.insert(name);
      }
    }
  }

  // Status-declaring classes: re-scan for the enclosing class of each
  // Task<Status> declaration (simple brace-tracked class stack).
  struct Scope {
    std::string name;
    int depth;
  };
  std::vector<Scope> stack;
  int depth = 0;
  std::string pending;
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (is_ident(t[i]) && (t[i].text == "class" || t[i].text == "struct") &&
        i + 1 < t.size() && is_ident(t[i + 1]))
      pending = t[i + 1].text;
    else if (is_punct(t[i], ";") && depth == (stack.empty() ? 0 : stack.back().depth))
      pending.clear();
    if (is_punct(t[i], "{")) {
      ++depth;
      if (!pending.empty()) {
        stack.push_back(Scope{pending, depth});
        pending.clear();
      }
    } else if (is_punct(t[i], "}")) {
      if (!stack.empty() && stack.back().depth == depth) stack.pop_back();
      --depth;
    } else if (is_punct(t[i], ">") && i + 2 < t.size() && is_ident(t[i + 1]) &&
               is_punct(t[i + 2], "(") && !stack.empty()) {
      std::size_t lt = match_angle_back(t, i);
      if (lt != std::string::npos && lt > 0 && is_ident(t[lt - 1]) &&
          t[lt - 1].text == "Task") {
        std::string inner_last;
        for (std::size_t k = lt + 1; k < i; ++k)
          if (is_ident(t[k])) inner_last = t[k].text;
        if (inner_last == "Status") idx.status_classes.insert(stack.back().name);
      }
    } else if (is_punct(t[i], "::") && i + 3 < t.size() && is_ident(t[i + 1]) &&
               is_punct(t[i + 2], "(") && i >= 2 && is_ident(t[i - 1]) &&
               is_punct(t[i - 2], ">")) {
      std::size_t lt = match_angle_back(t, i - 2);
      if (lt != std::string::npos && lt > 0 && is_ident(t[lt - 1]) &&
          t[lt - 1].text == "Task") {
        std::string inner_last;
        for (std::size_t k = lt + 1; k < i - 2; ++k)
          if (is_ident(t[k])) inner_last = t[k].text;
        if (inner_last == "Status") idx.status_classes.insert(t[i - 1].text);
      }
    }
  }
}

/// Second symbol pass (needs status_classes): variables declared with a
/// status-class type and functions returning one.
void scan_status_vars(const FileUnit& f, Index& idx) {
  const auto& t = f.lx.tokens;
  for (std::size_t i = 0; i + 1 < t.size(); ++i) {
    if (!is_ident(t[i]) || !idx.status_classes.count(t[i].text)) continue;
    if (i + 1 < t.size() && is_punct(t[i + 1], "::")) continue;  // qualifier
    std::size_t j = i + 1;
    // Template-wrapped declarations: `unique_ptr<GroupRingBcast> ring`.
    if (j < t.size() && is_punct(t[j], ">")) ++j;
    while (j < t.size() && (is_punct(t[j], "&") || is_punct(t[j], "*"))) ++j;
    if (j >= t.size() || !is_ident(t[j])) continue;
    if (j + 1 < t.size() && is_punct(t[j + 1], "(")) {
      // `OffloadEndpoint& endpoint(int)` — producer; also recorded as a
      // variable (the most-vexing-parse case `GroupAlltoall a2a(world)`).
      idx.status_producers.insert(t[j].text);
      idx.status_vars.insert(t[j].text);
    } else if (j + 1 < t.size() &&
               (is_punct(t[j + 1], "=") || is_punct(t[j + 1], ";") ||
                is_punct(t[j + 1], ",") || is_punct(t[j + 1], ")") ||
                is_punct(t[j + 1], "{"))) {
      idx.status_vars.insert(t[j].text);
    }
  }
}

}  // namespace

std::size_t match_paren_forward(const std::vector<Token>& t, std::size_t open) {
  return match_paren_fwd(t, open);
}

bool waived(const FileUnit& f, int line, const std::string& rule) {
  const std::string tag = "lint: " + rule + " ok:";
  for (const Comment& c : f.lx.comments)
    if (c.line >= line - 5 && c.line <= line &&
        c.text.find(tag) != std::string::npos)
      return true;
  return false;
}

Index build_index(const std::string& root) {
  Index idx;
  idx.root = root;
  static const char* kTops[] = {"src", "tests", "bench", "examples", "tools"};
  std::vector<fs::path> paths;
  for (const char* top : kTops) {
    fs::path dir = fs::path(root) / top;
    if (!fs::is_directory(dir)) continue;
    for (auto it = fs::recursive_directory_iterator(dir);
         it != fs::recursive_directory_iterator(); ++it) {
      if (it->is_directory() && it->path().filename() == "lint_fixtures") {
        it.disable_recursion_pending();
        continue;
      }
      if (it->is_regular_file() && cpp_ext(it->path()))
        paths.push_back(it->path());
    }
  }
  std::sort(paths.begin(), paths.end());

  idx.files.reserve(paths.size());
  for (const auto& p : paths) {
    std::ifstream in(p, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    std::string src = ss.str();
    FileUnit f;
    f.abs = p.generic_string();
    f.rel = fs::relative(p, root).generic_string();
    auto slash = f.rel.find('/');
    f.top = f.rel.substr(0, slash);
    if (f.top == "src" && slash != std::string::npos) {
      auto rest = f.rel.substr(slash + 1);
      auto s2 = rest.find('/');
      if (s2 != std::string::npos) f.layer = rest.substr(0, s2);
    }
    f.lx = lex(src);
    idx.files.push_back(std::move(f));
  }

  std::set<std::string> nonstatus_decls;
  for (const FileUnit& f : idx.files) {
    if (f.rel == "src/offload/protocol.h") {
      idx.protocol_file = &f;
      scan_protocol(f, idx);
    }
    scan_symbols(f, idx, nonstatus_decls);
  }
  for (const std::string& m : idx.status_methods)
    if (nonstatus_decls.count(m)) idx.ambiguous_methods.insert(m);
  for (const FileUnit& f : idx.files) scan_status_vars(f, idx);
  return idx;
}

}  // namespace dpulint
