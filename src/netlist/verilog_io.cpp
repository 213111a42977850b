#include "netlist/verilog_io.hpp"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>
#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace cwatpg::net {
namespace {

struct Statement {
  std::size_t line = 0;
  std::vector<std::string> tokens;
};

bool identifier_start(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_' ||
         c == '\\';
}
bool identifier_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
         c == '$' || c == '\'';
}

/// Splits the stream into ';'-terminated statements of tokens, stripping
/// // and /* */ comments. 'endmodule' (no ';') is emitted as its own
/// statement.
std::vector<Statement> tokenize(std::istream& in) {
  std::vector<Statement> statements;
  Statement current;
  std::string line;
  std::size_t lineno = 0;
  bool in_block_comment = false;

  auto flush = [&]() {
    if (!current.tokens.empty()) statements.push_back(current);
    current.tokens.clear();
  };

  while (std::getline(in, line)) {
    ++lineno;
    std::string text = line;
    // Block comments (may span lines).
    std::string stripped;
    for (std::size_t i = 0; i < text.size();) {
      if (in_block_comment) {
        if (text.compare(i, 2, "*/") == 0) {
          in_block_comment = false;
          i += 2;
        } else {
          ++i;
        }
        continue;
      }
      if (text.compare(i, 2, "/*") == 0) {
        in_block_comment = true;
        i += 2;
        continue;
      }
      if (text.compare(i, 2, "//") == 0) break;
      stripped += text[i++];
    }

    for (std::size_t i = 0; i < stripped.size();) {
      const char c = stripped[i];
      if (std::isspace(static_cast<unsigned char>(c))) {
        ++i;
        continue;
      }
      if (current.tokens.empty()) current.line = lineno;
      if (c == ';') {
        flush();
        ++i;
        continue;
      }
      if (c == '(' || c == ')' || c == ',' || c == '=') {
        current.tokens.emplace_back(1, c);
        ++i;
        continue;
      }
      if (identifier_start(c) || std::isdigit(static_cast<unsigned char>(c))) {
        std::size_t j = i;
        if (c == '\\') {  // escaped identifier: up to whitespace
          ++j;
          while (j < stripped.size() &&
                 !std::isspace(static_cast<unsigned char>(stripped[j])))
            ++j;
        } else {
          while (j < stripped.size() && identifier_char(stripped[j])) ++j;
        }
        current.tokens.push_back(stripped.substr(i, j - i));
        if (current.tokens.back() == "endmodule") flush();
        i = j;
        continue;
      }
      throw VerilogError(lineno, std::string("unexpected character '") + c +
                                     "'");
    }
  }
  flush();
  return statements;
}

struct GateDef {
  std::size_t line = 0;
  GateType type = GateType::kBuf;
  std::vector<std::string> inputs;  // "1'b0"/"1'b1" allowed
};

std::optional<GateType> primitive(const std::string& word) {
  if (word == "and") return GateType::kAnd;
  if (word == "nand") return GateType::kNand;
  if (word == "or") return GateType::kOr;
  if (word == "nor") return GateType::kNor;
  if (word == "xor") return GateType::kXor;
  if (word == "xnor") return GateType::kXnor;
  if (word == "not") return GateType::kNot;
  if (word == "buf") return GateType::kBuf;
  return std::nullopt;
}

}  // namespace

Network read_verilog(std::istream& in) {
  const std::vector<Statement> statements = tokenize(in);

  std::string module_name = "verilog";
  std::vector<std::pair<std::string, std::size_t>> inputs, outputs;
  std::unordered_map<std::string, GateDef> defs;
  bool saw_module = false, saw_end = false;

  for (const Statement& st : statements) {
    const auto& t = st.tokens;
    if (t.empty()) continue;
    const std::string& kw = t[0];
    if (kw == "module") {
      if (saw_module) throw VerilogError(st.line, "multiple modules");
      saw_module = true;
      if (t.size() >= 2) module_name = t[1];
      continue;  // port list carries no direction info
    }
    if (kw == "endmodule") {
      saw_end = true;
      continue;
    }
    if (!saw_module)
      throw VerilogError(st.line, "statement before 'module'");
    if (saw_end) throw VerilogError(st.line, "statement after 'endmodule'");
    if (kw == "input" || kw == "output" || kw == "wire") {
      for (std::size_t i = 1; i < t.size(); ++i) {
        if (t[i] == ",") continue;
        if (t[i] == "(" || t[i] == ")" || t[i] == "=")
          throw VerilogError(st.line, "vectors/ranges not supported");
        if (kw == "input") inputs.emplace_back(t[i], st.line);
        if (kw == "output") outputs.emplace_back(t[i], st.line);
        // wires carry no information we need
      }
      continue;
    }
    if (kw == "assign") {
      // assign lhs = rhs ;
      if (t.size() != 4 || t[2] != "=")
        throw VerilogError(st.line, "unsupported assign form");
      GateDef def;
      def.line = st.line;
      def.type = GateType::kBuf;
      def.inputs = {t[3]};
      if (!defs.emplace(t[1], def).second)
        throw VerilogError(st.line, "signal '" + t[1] + "' multiply driven");
      continue;
    }
    if (const auto type = primitive(kw)) {
      // gate [inst] ( out , in... ) — find the parenthesis.
      std::size_t lp = 1;
      if (lp < t.size() && t[lp] != "(") ++lp;  // optional instance name
      if (lp >= t.size() || t[lp] != "(")
        throw VerilogError(st.line, "expected port list");
      std::vector<std::string> ports;
      for (std::size_t i = lp + 1; i < t.size() && t[i] != ")"; ++i)
        if (t[i] != ",") ports.push_back(t[i]);
      if (ports.size() < 2)
        throw VerilogError(st.line, "gate needs an output and an input");
      GateDef def;
      def.line = st.line;
      def.type = *type;
      def.inputs.assign(ports.begin() + 1, ports.end());
      const bool unary = *type == GateType::kNot || *type == GateType::kBuf;
      if (unary && def.inputs.size() != 1)
        throw VerilogError(st.line, "not/buf take one input");
      if (!defs.emplace(ports[0], def).second)
        throw VerilogError(st.line,
                           "signal '" + ports[0] + "' multiply driven");
      continue;
    }
    if (kw == "always" || kw == "reg" || kw == "initial")
      throw VerilogError(st.line,
                         "behavioral/sequential constructs not supported");
    throw VerilogError(st.line, "unsupported statement '" + kw + "'");
  }
  if (!saw_module) throw VerilogError(0, "no module found");
  if (!saw_end) throw VerilogError(0, "missing 'endmodule'");

  // Topological construction (signals may be used before definition).
  Network netw;
  netw.set_name(module_name);
  std::unordered_map<std::string, NodeId> built;
  for (const auto& [name, line] : inputs) {
    if (defs.count(name))
      throw VerilogError(line, "input '" + name + "' also driven");
    if (built.count(name))
      throw VerilogError(line, "input '" + name + "' declared twice");
    built.emplace(name, netw.add_input(name));
  }

  enum class Mark : std::uint8_t { kUnseen, kActive, kDone };
  std::unordered_map<std::string, Mark> mark;
  NodeId const0 = kNullNode, const1 = kNullNode;
  auto resolve = [&](const std::string& name,
                     std::size_t line) -> std::optional<NodeId> {
    if (name == "1'b0" || name == "1'd0") {
      if (const0 == kNullNode) const0 = netw.add_const(false);
      return const0;
    }
    if (name == "1'b1" || name == "1'd1") {
      if (const1 == kNullNode) const1 = netw.add_const(true);
      return const1;
    }
    const auto it = built.find(name);
    if (it != built.end()) return it->second;
    if (!defs.count(name))
      throw VerilogError(line, "signal '" + name + "' never driven");
    return std::nullopt;
  };

  // Iterative DFS identical in spirit to the .bench reader.
  auto build_signal = [&](const std::string& root) {
    if (built.count(root) || !defs.count(root)) return;
    std::vector<std::pair<std::string, std::size_t>> stack{{root, 0}};
    while (!stack.empty()) {
      auto& [sig, next] = stack.back();
      const GateDef& def = defs.at(sig);
      if (next == 0) {
        Mark& m = mark[sig];
        if (m == Mark::kActive)
          throw VerilogError(def.line, "combinational cycle through '" + sig + "'");
        m = Mark::kActive;
      }
      bool descended = false;
      while (next < def.inputs.size()) {
        const std::string& arg = def.inputs[next];
        ++next;
        if (!resolve(arg, def.line).has_value()) {
          if (mark[arg] == Mark::kActive)
            throw VerilogError(def.line,
                               "combinational cycle through '" + arg + "'");
          stack.emplace_back(arg, 0);
          descended = true;
          break;
        }
      }
      if (descended) continue;
      std::vector<NodeId> fis;
      for (const std::string& arg : def.inputs)
        fis.push_back(*resolve(arg, def.line));
      built.emplace(sig, netw.add_gate(def.type, std::move(fis), sig));
      mark[sig] = Mark::kDone;
      stack.pop_back();
    }
  };
  for (const auto& [sig, def] : defs) {
    (void)def;
    build_signal(sig);
  }
  for (const auto& [sig, line] : outputs) {
    const auto node = resolve(sig, line);
    if (!node) throw VerilogError(line, "output '" + sig + "' never driven");
    netw.add_output(*node, sig + "_po");
  }
  netw.validate();
  return netw;
}

Network read_verilog_string(const std::string& text) {
  std::istringstream ss(text);
  return read_verilog(ss);
}

Network read_verilog_file(const std::string& path) {
  std::ifstream f(path);
  if (!f) throw std::runtime_error("cannot open verilog file: " + path);
  return read_verilog(f);
}

void write_verilog(std::ostream& out, const Network& netw) {
  // Verilog-safe unique names.
  std::vector<std::string> name(netw.node_count());
  std::unordered_set<std::string> used;
  auto sanitize = [&](NodeId id) {
    std::string s = netw.name_of(id);
    if (s.empty() || !identifier_start(s[0]) || s[0] == '\\') s = "n_" + s;
    for (char& c : s)
      if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_' &&
          c != '$')
        c = '_';
    while (!used.insert(s).second) {
      s += '_';
      s += std::to_string(id);
    }
    return s;
  };
  for (NodeId id = 0; id < netw.node_count(); ++id) name[id] = sanitize(id);

  const std::string module =
      netw.name().empty() ? std::string("cwatpg") : netw.name();
  out << "module " << (identifier_start(module[0]) ? module : "m_" + module)
      << " (";
  bool first = true;
  for (NodeId pi : netw.inputs()) {
    out << (first ? "" : ", ") << name[pi];
    first = false;
  }
  for (NodeId po : netw.outputs()) {
    out << (first ? "" : ", ") << name[po];
    first = false;
  }
  out << ");\n";

  if (!netw.inputs().empty()) {
    out << "  input ";
    for (std::size_t i = 0; i < netw.inputs().size(); ++i)
      out << (i ? ", " : "") << name[netw.inputs()[i]];
    out << ";\n";
  }
  if (!netw.outputs().empty()) {
    out << "  output ";
    for (std::size_t i = 0; i < netw.outputs().size(); ++i)
      out << (i ? ", " : "") << name[netw.outputs()[i]];
    out << ";\n";
  }
  bool any_wire = false;
  for (NodeId id = 0; id < netw.node_count(); ++id) {
    if (!is_logic(netw.type(id)) && netw.type(id) != GateType::kConst0 &&
        netw.type(id) != GateType::kConst1)
      continue;
    out << (any_wire ? ", " : "  wire ") << name[id];
    any_wire = true;
  }
  if (any_wire) out << ";\n";
  out << "\n";

  std::size_t instance = 0;
  for (NodeId id = 0; id < netw.node_count(); ++id) {
    switch (netw.type(id)) {
      case GateType::kInput:
        break;
      case GateType::kConst0:
        out << "  assign " << name[id] << " = 1'b0;\n";
        break;
      case GateType::kConst1:
        out << "  assign " << name[id] << " = 1'b1;\n";
        break;
      case GateType::kOutput:
        out << "  assign " << name[id] << " = "
            << name[netw.fanins(id)[0]] << ";\n";
        break;
      default: {
        std::string keyword = to_string(netw.type(id));
        std::transform(keyword.begin(), keyword.end(), keyword.begin(),
                       [](unsigned char c) { return std::tolower(c); });
        if (keyword == "buff") keyword = "buf";
        out << "  " << keyword << " g" << instance++ << " (" << name[id];
        for (NodeId fi : netw.fanins(id)) out << ", " << name[fi];
        out << ");\n";
        break;
      }
    }
  }
  out << "endmodule\n";
}

}  // namespace cwatpg::net
