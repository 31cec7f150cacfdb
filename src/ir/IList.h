//===- IList.h - owning intrusive doubly-linked list ------------*- C++ -*-===//
//
// Part of the Proteus reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// IList<T>: the list that holds a block's instructions and a function's
/// blocks. The links live in the node (IListNode<T>), the head, tail and
/// size in the owner, so linking, unlinking and moving a node are O(1) and
/// allocate nothing. The list owns its nodes: clear() and the destructor
/// delete them; unlink() hands a node back to the caller.
///
//===----------------------------------------------------------------------===//

#ifndef PROTEUS_IR_ILIST_H
#define PROTEUS_IR_ILIST_H

#include <cassert>
#include <cstddef>

namespace pir {

template <typename NodeT> class IList;

/// Base class of a node that can sit in one IList<NodeT> at a time.
template <typename NodeT> class IListNode {
public:
  /// The next/previous node in the owning list, or null at its end.
  NodeT *getNextNode() const { return Next; }
  NodeT *getPrevNode() const { return Prev; }

private:
  friend class IList<NodeT>;
  NodeT *Prev = nullptr;
  NodeT *Next = nullptr;
};

template <typename NodeT> class IList {
  using Node = IListNode<NodeT>;

public:
  /// Bidirectional iterator presenting NodeT&. The end iterator is null
  /// plus its list, so --end() reaches the tail.
  class iterator {
  public:
    iterator() = default;
    iterator(NodeT *N, const IList *L) : N(N), L(L) {}
    NodeT &operator*() const { return *N; }
    NodeT *operator->() const { return N; }
    iterator &operator++() {
      N = N->getNextNode();
      return *this;
    }
    iterator operator++(int) {
      iterator Tmp = *this;
      ++*this;
      return Tmp;
    }
    iterator &operator--() {
      N = N ? N->getPrevNode() : L->Tail;
      return *this;
    }
    bool operator==(const iterator &O) const { return N == O.N; }
    bool operator!=(const iterator &O) const { return N != O.N; }

  private:
    NodeT *N = nullptr;
    const IList *L = nullptr;
  };

  IList() = default;
  IList(const IList &) = delete;
  IList &operator=(const IList &) = delete;
  ~IList() { clear(); }

  bool empty() const { return Size == 0; }
  size_t size() const { return Size; }
  NodeT *front() const { return Head; }
  NodeT *back() const { return Tail; }
  iterator begin() const { return iterator(Head, this); }
  iterator end() const { return iterator(nullptr, this); }

  /// Links the unlinked node \p N before \p Pos (at the end when \p Pos is
  /// null). The list takes ownership.
  void insertBefore(NodeT *Pos, NodeT *N) {
    Node &L = *N;
    assert(!L.Prev && !L.Next && N != Head && "node already linked");
    NodeT *Prev = Pos ? link(Pos).Prev : Tail;
    L.Prev = Prev;
    L.Next = Pos;
    (Prev ? link(Prev).Next : Head) = N;
    (Pos ? link(Pos).Prev : Tail) = N;
    ++Size;
  }

  void pushBack(NodeT *N) { insertBefore(nullptr, N); }

  /// Unlinks \p N and hands ownership back to the caller.
  void unlink(NodeT *N) {
    Node &L = *N;
    (L.Prev ? link(L.Prev).Next : Head) = L.Next;
    (L.Next ? link(L.Next).Prev : Tail) = L.Prev;
    L.Prev = L.Next = nullptr;
    --Size;
  }

  /// Deletes every node, front to back.
  void clear() {
    while (NodeT *N = Head) {
      Head = link(N).Next;
      delete N;
    }
    Tail = nullptr;
    Size = 0;
  }

private:
  static Node &link(NodeT *N) { return *N; }

  NodeT *Head = nullptr;
  NodeT *Tail = nullptr;
  size_t Size = 0;
};

} // namespace pir

#endif // PROTEUS_IR_ILIST_H
